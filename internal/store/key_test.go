package store

import (
	"fmt"
	"math"
	"testing"

	"lowlat/internal/routing"
)

// TestConfigDigestPinned pins the config half of every content key.
// ConfigString feeds ConfigDigest, which is part of every stored cell's
// key, so a change to either orphans every store written before it:
// the cells are still on disk, but no request finds them. The wants
// were captured when the table was written; a failure here means a key
// moved, not that the table needs updating.
func TestConfigDigestPinned(t *testing.T) {
	type pin struct {
		config, digest string
	}
	byName := map[string][2]pin{ // SchemeNames() at headroom 0 and 0.1
		"sp":         {{"sp", "08d93e07b5793c56"}, {"sp", "08d93e07b5793c56"}},
		"b4":         {{"b4:h=0:q=0:p=0", "3c1452a4a3beef03"}, {"b4:h=0.1:q=0:p=0", "aba62b5b64122116"}},
		"mplste":     {{"mplste:h=0:o=0", "59356fcfbda6a51b"}, {"mplste:h=0.1:o=0", "9215bbf0d6309996"}},
		"minmax":     {{"minmax:k=0:sb=0", "21073c8b96592521"}, {"minmax:k=0:sb=0", "21073c8b96592521"}},
		"minmax-k10": {{"minmax:k=10:sb=0", "ae1df3c4deec9c34"}, {"minmax:k=10:sb=0", "ae1df3c4deec9c34"}},
		"ldr":        {{"latopt:h=0:p=0:x=false", "119a21fb96c9fb7b"}, {"latopt:h=0.1:p=0:x=false", "9287c2565140be92"}},
	}
	check := func(t *testing.T, s routing.Scheme, want pin) {
		t.Helper()
		if got := routing.ConfigString(s); got != want.config {
			t.Errorf("ConfigString = %q, want %q", got, want.config)
		}
		if got := ConfigDigest(s).String(); got != want.digest {
			t.Errorf("ConfigDigest = %s, want %s", got, want.digest)
		}
	}
	for _, name := range routing.SchemeNames() {
		pins, ok := byName[name]
		if !ok {
			t.Errorf("scheme %q has no pinned key", name)
			continue
		}
		for i, h := range []float64{0, 0.1} {
			s, err := routing.ByName(name, h)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("%s/h=%g", name, h), func(t *testing.T) { check(t, s, pins[i]) })
		}
	}

	for _, tc := range []struct {
		scheme routing.Scheme
		want   pin
	}{
		{routing.MinMax{K: 10}, pin{"minmax:k=10:sb=0", "ae1df3c4deec9c34"}},
		{routing.MPLSTE{Order: routing.TEOrderVolumeDesc}, pin{"mplste:h=0:o=0", "59356fcfbda6a51b"}},
		{routing.MPLSTE{Order: routing.TEOrderVolumeAsc}, pin{"mplste:h=0:o=1", "59356ecfbda6a368"}},
		{routing.MPLSTE{Order: routing.TEOrderIndex}, pin{"mplste:h=0:o=2", "593571cfbda6a881"}},
		{routing.LatencyOpt{Exact: true}, pin{"latopt:h=0:p=0:x=true", "107d59e99f4075e0"}},
		{routing.MinMax{StretchBound: 1.5}, pin{"minmax:k=0:sb=1.5", "18d8315e6508bf4f"}},
	} {
		t.Run(tc.want.config, func(t *testing.T) { check(t, tc.scheme, tc.want) })
	}
}

// TestStringsMatchFmt pins the strconv renderings of keys and specs to
// the fmt forms they replaced ("%016x" per digest, "%s|%d|%s|%g|%g|%g"
// per spec): both are identities — a key string names a stored cell, a
// spec string is the coalescing and ring key — so no value may render
// differently, at the edges of %g's notation included.
func TestStringsMatchFmt(t *testing.T) {
	digests := []Digest{0, 1, 0xf, 0x10, 0xdeadbeef, 1 << 63, math.MaxUint64}
	for _, d := range digests {
		if got, want := d.String(), fmt.Sprintf("%016x", uint64(d)); got != want {
			t.Errorf("Digest(%#x).String() = %q, want %q", uint64(d), got, want)
		}
		js, err := d.MarshalJSON()
		if err != nil || string(js) != `"`+fmt.Sprintf("%016x", uint64(d))+`"` {
			t.Errorf("Digest(%#x).MarshalJSON() = %s, %v", uint64(d), js, err)
		}
	}
	for _, k := range []CellKey{
		{},
		{Graph: 1, Matrix: math.MaxUint64, Config: 0xabc, Scheme: "minmax-k10"},
		{Graph: 0xfeedface, Matrix: 2, Config: 3, Scheme: "a-scheme-name-longer-than-the-stack-buffer-the-key-is-built-in"},
	} {
		want := fmt.Sprintf("g%016x-m%016x-c%016x-%s", uint64(k.Graph), uint64(k.Matrix), uint64(k.Config), k.Scheme)
		if got := k.String(); got != want {
			t.Errorf("CellKey.String() = %q, want %q", got, want)
		}
	}

	floats := []float64{
		0, math.Copysign(0, -1), 1, 0.1, 1.0 / 1.3, 1e20, 1e21, 999999999999999999999,
		1e-4, 1e-5, 0.00001234, 123456, 1234567, 2.5e9,
		5e-324, math.SmallestNonzeroFloat64 * 7, 2.2250738585072014e-308, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for i, f := range floats {
		s := CellSpec{
			Net: "randomgeo:30:7", Seed: int64(i) - 3, Scheme: "ldr",
			Headroom: f, Load: floats[(i+1)%len(floats)], Locality: floats[(i+2)%len(floats)],
		}
		if i%2 == 1 {
			s.Net, s.Seed = "gts-like", math.MinInt64
		}
		want := fmt.Sprintf("%s|%d|%s|%g|%g|%g", s.Net, s.Seed, s.Scheme, s.Headroom, s.Load, s.Locality)
		if got := s.String(); got != want {
			t.Errorf("CellSpec.String() = %q, want %q", got, want)
		}
	}
}
