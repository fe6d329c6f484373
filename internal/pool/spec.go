// Pool spec grammar: one string that names a whole device farm, in the
// spirit of the backend registry's engine specs.
//
//	pool?hedge=true,quarantine=3,probe=50ms,maxshards=4,devices=SPEC|SPEC*3
//
// Device specs themselves contain ',' (backend keys) and ';' (fault
// sub-grammar), so the devices= parameter is NOT ','-splittable and must
// come LAST: everything after "devices=" is the device list, split on '|'.
// A "SPEC*N" entry replicates one spec N times ("accelerator*4" is a
// four-device homogeneous farm); '*' may appear only there, and one spec
// names at most 1024 devices. Parameters before devices=:
//
//	hedge=BOOL        enable straggler hedging (default false)
//	hedgedelay=DUR    fixed hedge delay (default: p99-derived)
//	hedgefactor=F     p99 multiplier for the derived delay (default 3)
//	minhedge=DUR      floor for the derived delay (default 500µs)
//	quarantine=N      consecutive faults before quarantine (default 3)
//	probe=DUR         background probe cadence (default 50ms)
//	maxshards=N       shard cap per request (default: pool size)
//	shard=S           execution strategy: sample (default) | channel
//	debug=BOOL        log scheduling decisions to stderr (default false)
package pool

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"photofourier/internal/nn"
)

// Name is the spec prefix that selects a device pool.
const Name = "pool"

// maxDevices caps the device count of one pool spec, so a replication
// count cannot make ParseSpec allocate without bound.
const maxDevices = 1024

// IsPoolSpec reports whether spec names a device pool rather than a single
// backend engine.
func IsPoolSpec(spec string) bool {
	return spec == Name || strings.HasPrefix(spec, Name+"?")
}

// ParseSpec parses a pool spec into Options (see the package grammar).
func ParseSpec(spec string) (Options, error) {
	var o Options
	if !IsPoolSpec(spec) {
		return o, fmt.Errorf("%w: spec %q does not start with %q", ErrBadPool, spec, Name+"?")
	}
	rest := strings.TrimPrefix(spec, Name)
	rest = strings.TrimPrefix(rest, "?")
	const devKey = "devices="
	i := strings.Index(rest, devKey)
	if i < 0 {
		return o, fmt.Errorf("%w: spec %q has no devices= list (it must be the last parameter)", ErrBadPool, spec)
	}
	params, devList := rest[:i], rest[i+len(devKey):]
	for _, dev := range strings.Split(devList, "|") {
		dev = strings.TrimSpace(dev)
		if dev == "" {
			return o, fmt.Errorf("%w: spec %q: empty device entry", ErrBadPool, spec)
		}
		reps := 1
		if j := strings.LastIndex(dev, "*"); j >= 0 {
			n, err := strconv.Atoi(dev[j+1:])
			if err != nil || n < 1 {
				return o, fmt.Errorf("%w: spec %q: bad replication %q (want SPEC*N)", ErrBadPool, spec, dev)
			}
			reps, dev = n, strings.TrimSpace(dev[:j])
		}
		// A '*' left inside the device spec would read as a replication
		// suffix once the spec is rendered back one device per entry.
		if dev == "" || strings.Contains(dev, "*") {
			return o, fmt.Errorf("%w: spec %q: bad device entry %q (want SPEC or SPEC*N)", ErrBadPool, spec, dev)
		}
		if reps > maxDevices-len(o.Specs) {
			return o, fmt.Errorf("%w: spec %q: more than %d devices", ErrBadPool, spec, maxDevices)
		}
		for r := 0; r < reps; r++ {
			o.Specs = append(o.Specs, dev)
		}
	}
	params = strings.TrimSuffix(params, ",")
	if params != "" {
		for _, kv := range strings.Split(params, ",") {
			key, val, ok := strings.Cut(kv, "=")
			if !ok || key == "" || val == "" {
				return o, fmt.Errorf("%w: spec %q: parameter %q is not key=value", ErrBadPool, spec, kv)
			}
			var err error
			switch key {
			case "hedge":
				o.Hedge, err = strconv.ParseBool(val)
			case "hedgedelay":
				o.HedgeDelay, err = time.ParseDuration(val)
			case "hedgefactor":
				o.HedgeFactor, err = strconv.ParseFloat(val, 64)
			case "minhedge":
				o.MinHedge, err = time.ParseDuration(val)
			case "quarantine":
				o.QuarantineThreshold, err = strconv.Atoi(val)
			case "probe":
				o.ProbeInterval, err = time.ParseDuration(val)
			case "maxshards":
				o.MaxShards, err = strconv.Atoi(val)
			case "shard":
				o.Shard = val
			case "debug":
				o.Debug, err = strconv.ParseBool(val)
			default:
				return o, fmt.Errorf("%w: spec %q: unknown parameter %q (devices= must come last)", ErrBadPool, spec, key)
			}
			if err != nil {
				return o, fmt.Errorf("%w: spec %q: parameter %q: %v", ErrBadPool, spec, kv, err)
			}
		}
	}
	return o, nil
}

// Open parses a pool spec and builds the pool over net — the pool twin of
// backend.Open + Network.Compile.
func Open(net *nn.Network, spec string) (*DevicePool, error) {
	o, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	p, err := New(net, o)
	if err != nil {
		return nil, err
	}
	p.spec = spec
	return p, nil
}

// synthesizeSpec renders Options back into the canonical grammar (used by
// New, where no textual spec exists yet). It writes every settable field,
// so ParseSpec of the result restores o.
func synthesizeSpec(o Options) string {
	return fmt.Sprintf("%s?hedge=%t,hedgedelay=%s,hedgefactor=%g,minhedge=%s,quarantine=%d,probe=%s,maxshards=%d,shard=%s,debug=%t,devices=%s",
		Name, o.Hedge, o.HedgeDelay, o.HedgeFactor, o.MinHedge,
		o.QuarantineThreshold, o.ProbeInterval, o.MaxShards, o.Shard, o.Debug, strings.Join(o.Specs, "|"))
}
