package gnutella

import (
	"piersearch/internal/piersearch"
)

// SharedFile is one file advertised by a host.
type SharedFile struct {
	Name string
	Size int64
}

// FileRef locates one shared file.
type FileRef struct {
	Host HostID
	Idx  int // index into the host's file list
}

// Library holds every host's shared files plus the per-ultrapeer keyword
// indexes ultrapeers use to answer queries on behalf of their leaves
// (today's Gnutella: leaves publish their file lists to their ultrapeers).
type Library struct {
	topo      *Topology
	tokenizer piersearch.Tokenizer
	files     [][]SharedFile         // per host
	upIndex   []map[string][]FileRef // per ultrapeer: term -> refs in its subtree
}

// NewLibrary creates an empty library over topo.
func NewLibrary(topo *Topology, tk piersearch.Tokenizer) *Library {
	lib := &Library{
		topo:      topo,
		tokenizer: tk,
		files:     make([][]SharedFile, topo.NumHosts()),
		upIndex:   make([]map[string][]FileRef, topo.NumUltrapeers()),
	}
	for u := range lib.upIndex {
		lib.upIndex[u] = make(map[string][]FileRef)
	}
	return lib
}

// AddFile shares f from host, updating the responsible ultrapeer's index.
func (l *Library) AddFile(host HostID, f SharedFile) FileRef {
	ref := FileRef{Host: host, Idx: len(l.files[host])}
	l.files[host] = append(l.files[host], f)
	u := l.topo.UltrapeerOf(host)
	for _, term := range l.tokenizer.Tokenize(f.Name) {
		l.upIndex[u][term] = append(l.upIndex[u][term], ref)
	}
	return ref
}

// File resolves a reference.
func (l *Library) File(ref FileRef) SharedFile { return l.files[ref.Host][ref.Idx] }

// Files returns the files shared by host (the BrowseHost view).
func (l *Library) Files(host HostID) []SharedFile { return l.files[host] }

// NumFiles returns the total number of shared file instances.
func (l *Library) NumFiles() int {
	n := 0
	for _, fs := range l.files {
		n += len(fs)
	}
	return n
}

// MatchAt returns the files in ultrapeer u's subtree matching every query
// term, the work one ultrapeer does when a query arrives.
func (l *Library) MatchAt(u HostID, terms []string) []FileRef {
	if len(terms) == 0 {
		return nil
	}
	// Probe the rarest term first, then verify the rest per candidate.
	best := 0
	for i, term := range terms {
		n := len(l.upIndex[u][term])
		if n == 0 {
			return nil
		}
		if n < len(l.upIndex[u][terms[best]]) {
			best = i
		}
	}
	candidates := l.upIndex[u][terms[best]]
	var out []FileRef
	for _, ref := range candidates {
		if l.matches(ref, terms) {
			out = append(out, ref)
		}
	}
	return out
}

func (l *Library) matches(ref FileRef, terms []string) bool {
	name := l.File(ref).Name
	tokens := l.tokenizer.Tokenize(name)
	set := make(map[string]bool, len(tokens))
	for _, t := range tokens {
		set[t] = true
	}
	for _, term := range terms {
		if !set[term] {
			return false
		}
	}
	return true
}
