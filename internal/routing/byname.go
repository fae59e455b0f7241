package routing

import (
	"fmt"
	"strings"
)

// ByName resolves a scheme from its CLI / sweep-grid name. Headroom is
// applied to the schemes that have a headroom dial (b4, mplste, ldr) and
// ignored by the rest, mirroring how the flags behave.
func ByName(name string, headroom float64) (Scheme, error) {
	switch name {
	case "sp":
		return SP{}, nil
	case "b4":
		return B4{Headroom: headroom}, nil
	case "mplste":
		return MPLSTE{Headroom: headroom}, nil
	case "minmax":
		return MinMax{}, nil
	case "minmax-k10":
		return MinMax{K: 10}, nil
	case "ldr", "latopt":
		return LatencyOpt{Headroom: headroom}, nil
	}
	return nil, fmt.Errorf("routing: unknown scheme %q", name)
}

// SchemeNames lists the names ByName accepts (one canonical name per
// scheme), in presentation order.
func SchemeNames() []string {
	return []string{"sp", "b4", "mplste", "minmax", "minmax-k10", "ldr"}
}

// Headroom reports the reserved-capacity fraction a scheme value was
// configured with; schemes without a headroom dial report 0.
func Headroom(s Scheme) float64 {
	switch v := s.(type) {
	case B4:
		return v.Headroom
	case MPLSTE:
		return v.Headroom
	case LatencyOpt:
		return v.Headroom
	}
	return 0
}

// SpecName is the name ByName accepts for s: its Name without the
// "+hr..." suffix the headroom-dialed schemes append, so
// ByName(SpecName(s), Headroom(s)) configures s again.
func SpecName(s Scheme) string {
	name, _, _ := strings.Cut(s.Name(), "+")
	return name
}

// ConfigString renders every placement-relevant knob of a scheme value as
// a canonical string, so equal strings imply identical placements on the
// same (graph, matrix). Zero values render as themselves, not as the
// defaults they resolve to at Place time, which is conservative: a zero
// and an explicit default digest differently and at worst recompute.
//
// B4's q=0:p=0 and LatencyOpt's p=0 are frozen literals: they printed
// the quanta and path-bound fields, since replaced by constants, which
// were zero in every key ever written. Dropping or changing them would
// move every B4 and LatencyOpt content key and orphan the cells stored
// under it.
func ConfigString(s Scheme) string {
	switch v := s.(type) {
	case SP:
		return "sp"
	case B4:
		return fmt.Sprintf("b4:h=%g:q=0:p=0", v.Headroom)
	case MPLSTE:
		return fmt.Sprintf("mplste:h=%g:o=%d", v.Headroom, v.Order)
	case MinMax:
		return fmt.Sprintf("minmax:k=%d:sb=%g", v.K, v.StretchBound)
	case LatencyOpt:
		return fmt.Sprintf("latopt:h=%g:p=0:x=%v", v.Headroom, v.Exact)
	}
	return fmt.Sprintf("scheme:%s", s.Name())
}
