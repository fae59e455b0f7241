package store

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"lowlat/internal/graph"
	"lowlat/internal/routing"
	"lowlat/internal/tm"
)

// Digest is a 64-bit content hash rendered as fixed-width hex in JSON, so
// shard files stay greppable and keys survive tools that mangle large
// integers.
type Digest uint64

// String renders the digest as 16 hex digits.
func (d Digest) String() string {
	var buf [16]byte
	return string(d.appendHex(buf[:0]))
}

// appendHex appends the digest's 16 lowercase hex digits, zero-padded:
// the fmt "%016x" form.
func (d Digest) appendHex(b []byte) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, digits[uint64(d)>>shift&0xf])
	}
	return b
}

// MarshalJSON implements json.Marshaler.
func (d Digest) MarshalJSON() ([]byte, error) {
	b := append(make([]byte, 0, 18), '"')
	return append(d.appendHex(b), '"'), nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Digest) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("store: digest %s is not a hex string", b)
	}
	v, err := strconv.ParseUint(string(b[1:len(b)-1]), 16, 64)
	if err != nil {
		return fmt.Errorf("store: bad digest %s: %w", b, err)
	}
	*d = Digest(v)
	return nil
}

// CellKey addresses one cell of the scenario cross-product: one traffic
// matrix placed on one topology by one configured scheme. Keys are
// content-derived — graph structure, matrix contents, scheme name and
// scheme configuration — so the same cell produced by different drivers
// (a sweep, a figure run, a facade call) lands on the same store entry.
type CellKey struct {
	// Graph is graph.Fingerprint: name, node names/coordinates, link
	// endpoints/capacities/delays.
	Graph Digest `json:"graph"`
	// Matrix digests the tm serialization (node names, volumes, flow
	// counts, weights).
	Matrix Digest `json:"matrix"`
	// Scheme is the scheme's Name().
	Scheme string `json:"scheme"`
	// Config digests the scheme knobs Name() does not encode (headroom
	// value, path caps, ...) via routing.ConfigString.
	Config Digest `json:"config"`
}

// String renders the key in its canonical, filename-safe form.
func (k CellKey) String() string {
	var buf [72]byte
	b := k.Graph.appendHex(append(buf[:0], 'g'))
	b = k.Matrix.appendHex(append(b, "-m"...))
	b = k.Config.appendHex(append(b, "-c"...))
	return string(append(append(b, '-'), k.Scheme...))
}

// ParseCellKey parses the canonical form String renders
// ("g<16hex>-m<16hex>-c<16hex>-<scheme>"), for callers — the daemon's
// /v1/cell endpoint, scripts over export output — that address cells by
// the key strings earlier runs printed.
func ParseCellKey(s string) (CellKey, error) {
	fail := func() (CellKey, error) {
		return CellKey{}, fmt.Errorf("store: bad cell key %q (want g<hex16>-m<hex16>-c<hex16>-<scheme>)", s)
	}
	var k CellKey
	for _, part := range []struct {
		prefix byte
		dst    *Digest
	}{{'g', &k.Graph}, {'m', &k.Matrix}, {'c', &k.Config}} {
		if len(s) < 18 || s[0] != part.prefix || s[17] != '-' {
			return fail()
		}
		v, err := strconv.ParseUint(s[1:17], 16, 64)
		if err != nil {
			return fail()
		}
		*part.dst = Digest(v)
		s = s[18:]
	}
	if s == "" {
		return fail()
	}
	k.Scheme = s
	return k, nil
}

// hash spreads keys across shards.
func (k CellKey) hash() uint64 {
	h := fnv.New64a()
	h.Write([]byte(k.String()))
	return h.Sum64()
}

// DigestKeys folds a key set into one order-independent digest: equal
// sets digest equal whatever order (or replica) produced them, so two
// stores can be compared for anti-entropy with one value instead of a
// key-by-key exchange. Each key's FNV hash is avalanched through the
// splitmix64 finalizer before the commutative fold — raw FNV sums of
// near-identical keys would cancel structure the comparison relies on.
func DigestKeys(keys []CellKey) Digest {
	var d uint64
	for _, k := range keys {
		x := k.hash()
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		d += x
	}
	return Digest(d)
}

// KeyFor computes the store key of one scenario cell.
func KeyFor(g *graph.Graph, m *tm.Matrix, scheme routing.Scheme) CellKey {
	return KeyForDigest(g, MatrixDigest(g, m), scheme)
}

// KeyForDigest is KeyFor from an already known matrix digest — the one
// a calibration memo holds, or one shared by every scheme of a (graph,
// matrix) group — so the key needs no matrix in hand.
func KeyForDigest(g *graph.Graph, matrix Digest, scheme routing.Scheme) CellKey {
	return CellKey{
		Graph:  Digest(g.Fingerprint()),
		Matrix: matrix,
		Scheme: scheme.Name(),
		Config: ConfigDigest(scheme),
	}
}

// MatrixDigest hashes a traffic matrix's canonical tm serialization
// (which resolves node IDs to names through g, so the digest is stable
// across separately built copies of the same topology).
func MatrixDigest(g *graph.Graph, m *tm.Matrix) Digest {
	h := fnv.New64a()
	h.Write(tm.Marshal(g, m))
	return Digest(h.Sum64())
}

// ConfigDigest hashes the scheme configuration that Name() leaves out.
func ConfigDigest(scheme routing.Scheme) Digest {
	h := fnv.New64a()
	h.Write([]byte(routing.ConfigString(scheme)))
	return Digest(h.Sum64())
}
