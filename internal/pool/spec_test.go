package pool

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"photofourier/internal/nn"
)

func TestParseSpec(t *testing.T) {
	o, err := ParseSpec("pool?hedge=true,quarantine=2,probe=10ms,maxshards=3,devices=accelerator?workers=1|accelerator?fault=shot:1e-3;outage:40,faultseed=7|reference")
	if err != nil {
		t.Fatal(err)
	}
	if !o.Hedge || o.QuarantineThreshold != 2 || o.ProbeInterval != 10*time.Millisecond || o.MaxShards != 3 {
		t.Fatalf("params: %+v", o)
	}
	want := []string{
		"accelerator?workers=1",
		"accelerator?fault=shot:1e-3;outage:40,faultseed=7", // ',' and ';' survive inside a device spec
		"reference",
	}
	if len(o.Specs) != len(want) {
		t.Fatalf("specs %v, want %v", o.Specs, want)
	}
	for i := range want {
		if o.Specs[i] != want[i] {
			t.Errorf("spec %d: %q, want %q", i, o.Specs[i], want[i])
		}
	}
}

func TestParseSpecReplication(t *testing.T) {
	o, err := ParseSpec("pool?devices=accelerator?workers=1*3|reference")
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Specs) != 4 {
		t.Fatalf("specs %v, want 3 accelerators + 1 reference", o.Specs)
	}
	for i := 0; i < 3; i++ {
		if o.Specs[i] != "accelerator?workers=1" {
			t.Fatalf("spec %d: %q", i, o.Specs[i])
		}
	}
	if o.Specs[3] != "reference" {
		t.Fatalf("spec 3: %q", o.Specs[3])
	}
}

func TestParseSpecRejects(t *testing.T) {
	bad := []string{
		"accelerator",                      // not a pool spec
		"pool",                             // no devices
		"pool?hedge=true",                  // no devices
		"pool?devices=",                    // empty device list
		"pool?devices=a||b",                // empty entry
		"pool?devices=accelerator*0",       // bad replication
		"pool?bogus=1,devices=accelerator", // unknown parameter
		"pool?hedge,devices=accelerator",   // not key=value
		"pool?probe=xyz,devices=reference", // bad duration
		"pool?devices=*2",                  // replication of nothing
		"pool?devices=accelerator*2*3",     // '*' left inside the device spec
		"pool?devices=accelerator*1025",    // more than 1024 devices
		"pool?devices=a*1000|b*25",         // 1025 devices over two entries
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); !errors.Is(err, ErrBadPool) {
			t.Errorf("ParseSpec(%q) err %v, want ErrBadPool", spec, err)
		}
	}
}

func TestOpenPool(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	p, err := Open(net, "pool?quarantine=1,devices=accelerator?workers=1*2")
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Size() != 2 || p.Live() != 2 {
		t.Fatalf("size=%d live=%d, want 2/2", p.Size(), p.Live())
	}
	if p.Spec() != "pool?quarantine=1,devices=accelerator?workers=1*2" {
		t.Fatalf("spec %q not preserved", p.Spec())
	}
	if _, err := p.ForwardBatch(poolBatch(1, 3)); err != nil {
		t.Fatal(err)
	}
	// IsPoolSpec steers the CLI between pool and single-engine paths.
	if !IsPoolSpec("pool?devices=reference") || IsPoolSpec("accelerator") {
		t.Fatal("IsPoolSpec misclassified")
	}
}

// TestSynthesizedSpecRoundTrip: the spec New renders for an Options value
// parses back to the same settings, including the hedge tuning and the
// shard cap.
func TestSynthesizedSpecRoundTrip(t *testing.T) {
	net := nn.SmallCNN([2]int{4, 8}, 10, 99)
	p, err := New(net, Options{
		Specs:       repeatSpec("accelerator?workers=1", 2),
		MaxShards:   1,
		HedgeDelay:  7 * time.Millisecond,
		HedgeFactor: 5,
		MinHedge:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	o, err := ParseSpec(p.Spec())
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", p.Spec(), err)
	}
	if o.MaxShards != 1 || o.HedgeDelay != 7*time.Millisecond || o.HedgeFactor != 5 || o.MinHedge != time.Millisecond {
		t.Fatalf("spec %q parsed back as maxshards=%d hedgedelay=%v hedgefactor=%v minhedge=%v",
			p.Spec(), o.MaxShards, o.HedgeDelay, o.HedgeFactor, o.MinHedge)
	}
}

// exportedOptions clears the fields a spec cannot carry: the decision-log
// writer and the test seams.
func exportedOptions(o Options) Options {
	o.DecisionLog, o.now, o.after = nil, nil, nil
	return o
}

// FuzzPoolSpec: every spec that ParseSpec and validate accept survives
// ParseSpec → withDefaults → synthesizeSpec → ParseSpec → withDefaults
// with the same exported Options, and the rendering is a fixed point. A
// rejected spec fails with ErrBadPool, never a panic. The seed corpus
// lives in testdata/fuzz/FuzzPoolSpec.
func FuzzPoolSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		o, err := ParseSpec(spec)
		if err != nil {
			if !errors.Is(err, ErrBadPool) {
				t.Fatalf("ParseSpec(%q): %v, want ErrBadPool", spec, err)
			}
			return
		}
		if o.validate() != nil {
			return
		}
		want := o.withDefaults()
		canon := synthesizeSpec(want)
		back, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("ParseSpec(%q) of the rendering of %q: %v", canon, spec, err)
		}
		if err := back.validate(); err != nil {
			t.Fatalf("rendering %q of %q fails validation: %v", canon, spec, err)
		}
		got := back.withDefaults()
		if !reflect.DeepEqual(exportedOptions(got), exportedOptions(want)) {
			t.Fatalf("spec %q rendered as %q:\n got %+v\nwant %+v", spec, canon, exportedOptions(got), exportedOptions(want))
		}
		if again := synthesizeSpec(got); again != canon {
			t.Fatalf("rendering is not a fixed point: %q then %q", canon, again)
		}
	})
}
