package registry

import (
	"strings"
	"testing"
)

func TestTableRegisterGetNames(t *testing.T) {
	tbl := New[int]("thing")
	tbl.Register("charlie", 3)
	tbl.Register("alpha", 1)
	tbl.Register("bravo", 2)

	names := tbl.Names()
	want := []string{"alpha", "bravo", "charlie"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v (sorted)", names, want)
		}
	}
	v, err := tbl.Get("bravo")
	if err != nil || v != 2 {
		t.Fatalf("Get(bravo) = %d, %v", v, err)
	}
}

func TestTableUnknownNameError(t *testing.T) {
	tbl := New[int]("widget")
	tbl.Register("a", 1)
	tbl.Register("b", 2)
	_, err := tbl.Get("c")
	if err == nil {
		t.Fatal("expected error for unknown name")
	}
	msg := err.Error()
	for _, frag := range []string{"widget", `"c"`, "a, b"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("error %q should contain %q", msg, frag)
		}
	}
}

func TestTableDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register should panic")
		}
	}()
	tbl := New[int]("thing")
	tbl.Register("x", 1)
	tbl.Register("x", 2)
}

func TestResolveDefaultsAndOverrides(t *testing.T) {
	docs := []ParamDoc{
		{Key: "v", Default: 3.3},
		{Key: "rs", Default: 100},
	}
	p, err := Resolve("source", "dc", docs, Params{"rs": 50})
	if err != nil {
		t.Fatal(err)
	}
	if p["v"] != 3.3 || p["rs"] != 50 {
		t.Fatalf("Resolve = %v", p)
	}
}

func TestResolveUnknownKey(t *testing.T) {
	docs := []ParamDoc{{Key: "v", Default: 3.3}, {Key: "rs", Default: 100}}
	_, err := Resolve("source", "dc", docs, Params{"volts": 5})
	if err == nil {
		t.Fatal("expected unknown-param error")
	}
	msg := err.Error()
	for _, frag := range []string{`"volts"`, "rs, v", `source "dc"`} {
		if !strings.Contains(msg, frag) {
			t.Errorf("error %q should contain %q", msg, frag)
		}
	}
}
