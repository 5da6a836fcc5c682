package pier

import "fmt"

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Kind Kind
}

// Schema describes a relation: its name, columns, and the column whose
// value keys the tuple in the DHT (the "publishing key" of the paper —
// fileID for Item, keyword for Inverted).
type Schema struct {
	Name     string
	Cols     []Column
	IndexCol string // DHT publishing key column
}

// NewSchema validates and returns a schema.
func NewSchema(name string, cols []Column, indexCol string) (*Schema, error) {
	s := &Schema{Name: name, Cols: cols, IndexCol: indexCol}
	if name == "" {
		return nil, fmt.Errorf("pier: schema needs a name")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("pier: schema %s has no columns", name)
	}
	seen := map[string]bool{}
	for _, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("pier: schema %s has an unnamed column", name)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("pier: schema %s duplicates column %s", name, c.Name)
		}
		seen[c.Name] = true
	}
	if indexCol != "" && !seen[indexCol] {
		return nil, fmt.Errorf("pier: schema %s index column %s undefined", name, indexCol)
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error, for static declarations.
func MustSchema(name string, cols []Column, indexCol string) *Schema {
	s, err := NewSchema(name, cols, indexCol)
	if err != nil {
		panic(err)
	}
	return s
}

// ColIndex returns the position of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Validate checks t against the schema's arity and column kinds.
func (s *Schema) Validate(t Tuple) error {
	if len(t) != len(s.Cols) {
		return fmt.Errorf("pier: %s tuple has %d columns, schema has %d", s.Name, len(t), len(s.Cols))
	}
	for i, v := range t {
		if v.K != s.Cols[i].Kind {
			return fmt.Errorf("pier: %s column %s is %s, got %s", s.Name, s.Cols[i].Name, s.Cols[i].Kind, v.K)
		}
	}
	return nil
}

// IndexKey extracts the DHT publishing key of t as a string.
func (s *Schema) IndexKey(t Tuple) (string, error) {
	idx := s.ColIndex(s.IndexCol)
	if idx < 0 {
		return "", fmt.Errorf("pier: schema %s has no index column", s.Name)
	}
	if idx >= len(t) {
		return "", fmt.Errorf("pier: tuple too short for schema %s", s.Name)
	}
	return t[idx].Key(), nil
}
