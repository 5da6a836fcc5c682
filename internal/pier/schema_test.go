package pier

import "testing"

func TestNewSchemaValidation(t *testing.T) {
	cols := []Column{{Name: "a", Kind: KindString}, {Name: "b", Kind: KindInt}}
	if _, err := NewSchema("", cols, ""); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewSchema("t", nil, ""); err == nil {
		t.Error("no columns accepted")
	}
	if _, err := NewSchema("t", []Column{{Name: "", Kind: KindInt}}, ""); err == nil {
		t.Error("unnamed column accepted")
	}
	if _, err := NewSchema("t", []Column{{Name: "a"}, {Name: "a"}}, ""); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewSchema("t", cols, "zz"); err == nil {
		t.Error("unknown index column accepted")
	}
	s, err := NewSchema("t", cols, "a")
	if err != nil {
		t.Fatal(err)
	}
	if s.ColIndex("b") != 1 || s.ColIndex("missing") != -1 {
		t.Error("ColIndex wrong")
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema did not panic on invalid schema")
		}
	}()
	MustSchema("", nil, "")
}

func TestSchemaValidateTuple(t *testing.T) {
	s := MustSchema("t", []Column{{Name: "a", Kind: KindString}, {Name: "n", Kind: KindInt}}, "a")
	if err := s.Validate(Tuple{String("x"), Int(1)}); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	if err := s.Validate(Tuple{String("x")}); err == nil {
		t.Error("short tuple accepted")
	}
	if err := s.Validate(Tuple{Int(1), Int(1)}); err == nil {
		t.Error("mistyped tuple accepted")
	}
}

func TestSchemaIndexKey(t *testing.T) {
	s := MustSchema("t", []Column{{Name: "a", Kind: KindString}, {Name: "n", Kind: KindInt}}, "n")
	k, err := s.IndexKey(Tuple{String("x"), Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	if k != Int(7).Key() {
		t.Errorf("IndexKey = %q", k)
	}
	noIdx := MustSchema("t2", []Column{{Name: "a", Kind: KindString}}, "")
	if _, err := noIdx.IndexKey(Tuple{String("x")}); err == nil {
		t.Error("IndexKey without index column succeeded")
	}
	if _, err := s.IndexKey(Tuple{String("x")}); err == nil {
		t.Error("IndexKey on short tuple succeeded")
	}
}
