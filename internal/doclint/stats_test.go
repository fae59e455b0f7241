package doclint

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"lowlat/internal/backend"
)

// TestStatsKeysDocumented keeps /v1/stats readable: every JSON key of
// backend.Stats — the payload type, embedded telemetry included — must
// appear as `key` in OPERATIONS.md's "Reading /v1/stats" section. A
// counter cannot land on the wire without a line saying what it counts.
func TestStatsKeysDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	const heading = "## Reading /v1/stats\n"
	_, section, ok := strings.Cut(string(doc), heading)
	if !ok {
		t.Fatalf("OPERATIONS.md has no %q section", strings.TrimSpace(heading))
	}
	section, _, _ = strings.Cut(section, "\n## ")

	keys := jsonKeys(reflect.TypeOf(backend.Stats{}))
	for _, k := range keys {
		if !strings.Contains(section, "`"+k+"`") {
			t.Errorf("/v1/stats key %q is not documented in OPERATIONS.md's %q section", k, strings.TrimSpace(heading))
		}
	}
	t.Logf("%d /v1/stats keys checked", len(keys))
}

// jsonKeys lists the object keys encoding/json gives a struct type,
// descending into embedded structs that carry no name of their own.
func jsonKeys(typ reflect.Type) []string {
	var keys []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case name == "-" || !f.IsExported() && !f.Anonymous:
		case name == "" && f.Anonymous && f.Type.Kind() == reflect.Struct:
			keys = append(keys, jsonKeys(f.Type)...)
		case name == "":
			keys = append(keys, f.Name)
		default:
			keys = append(keys, name)
		}
	}
	return keys
}
