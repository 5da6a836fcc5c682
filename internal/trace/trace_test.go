package trace

import (
	"math"
	"strings"
	"testing"
)

// smallCfg keeps test runtime low while preserving distribution shape.
func smallCfg() Config {
	return Config{
		DistinctFiles: 8000,
		TargetCopies:  25000,
		SingletonFrac: 0.23,
		Hosts:         6000,
		Vocabulary:    5000,
		Queries:       300,
		Seed:          1,
	}
}

func TestCalibrateReplicasHitsTargets(t *testing.T) {
	counts := CalibrateReplicas(100_000, 315_546, 0.23)
	total, singles := 0, 0
	for _, c := range counts {
		total += c
		if c == 1 {
			singles++
		}
	}
	frac := float64(singles) / float64(total)
	if math.Abs(frac-0.23) > 0.05 {
		t.Errorf("singleton instance frac = %.3f, want 0.23 +/- 0.05", frac)
	}
	if math.Abs(float64(total)-315_546)/315_546 > 0.25 {
		t.Errorf("total instances = %d, want within 25%% of 315546", total)
	}
	// Monotone non-increasing by rank.
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Fatalf("replica counts not sorted at rank %d", i)
		}
	}
	if counts[len(counts)-1] < 1 {
		t.Error("replica count below 1")
	}
}

func TestGenerateBasicShape(t *testing.T) {
	tr := Generate(smallCfg())
	if len(tr.Files) != 8000 {
		t.Fatalf("files = %d", len(tr.Files))
	}
	if len(tr.Queries) != 300 {
		t.Fatalf("queries = %d", len(tr.Queries))
	}
	singles := 0
	for _, f := range tr.Files {
		if f.Replicas == 1 {
			singles++
		}
	}
	frac := float64(singles) / float64(tr.TotalInstances())
	if frac < 0.1 || frac > 0.4 {
		t.Errorf("singleton frac = %.3f", frac)
	}
	// Filenames distinct.
	seen := map[string]bool{}
	for _, f := range tr.Files {
		if seen[f.Name] {
			t.Fatalf("duplicate filename %q", f.Name)
		}
		seen[f.Name] = true
		if len(f.Terms) == 0 || f.Replicas < 1 {
			t.Fatalf("malformed file %+v", f)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(smallCfg())
	b := Generate(smallCfg())
	if a.Files[123].Name != b.Files[123].Name {
		t.Error("generation not deterministic")
	}
	if a.Queries[7].Text != b.Queries[7].Text {
		t.Error("queries not deterministic")
	}
}

func TestQueriesDerivedFromTargetFiles(t *testing.T) {
	tr := Generate(smallCfg())
	for _, q := range tr.Queries {
		target := tr.Files[q.TargetRank]
		set := map[string]bool{}
		for _, term := range target.Terms {
			set[term] = true
		}
		for _, term := range q.Terms {
			if !set[term] {
				t.Fatalf("query term %q not in target file %q", term, target.Name)
			}
		}
		if len(q.Terms) == 0 || len(q.Terms) > 3 {
			t.Fatalf("query has %d terms", len(q.Terms))
		}
	}
}

func TestQueryWorkloadHasRareMass(t *testing.T) {
	tr := Generate(smallCfg())
	rare := 0
	for _, q := range tr.Queries {
		if tr.Files[q.TargetRank].Replicas <= 3 {
			rare++
		}
	}
	frac := float64(rare) / float64(len(tr.Queries))
	if frac < 0.2 {
		t.Errorf("rare-target query fraction = %.2f, want >= 0.2 (the long tail is substantial)", frac)
	}
	if frac > 0.95 {
		t.Errorf("rare-target query fraction = %.2f, workload has no popular mass", frac)
	}
}

func TestRareFilesUseRarerTerms(t *testing.T) {
	// The TF-scheme signal: average global term frequency of rare files'
	// terms must be well below that of popular files' terms.
	tr := Generate(smallCfg())
	freq := tr.TermInstanceFrequency()
	avgMinFreq := func(files []DistinctFile) float64 {
		sum := 0.0
		for _, f := range files {
			minF := math.MaxFloat64
			for _, term := range f.Terms {
				if v := float64(freq[term]); v < minF {
					minF = v
				}
			}
			sum += minF
		}
		return sum / float64(len(files))
	}
	popular := avgMinFreq(tr.Files[:500])
	rare := avgMinFreq(tr.Files[len(tr.Files)-500:])
	if rare >= popular {
		t.Errorf("rare files' min term freq %.1f >= popular %.1f: no TF signal", rare, popular)
	}
}

func TestPlacementDistinctHosts(t *testing.T) {
	tr := Generate(smallCfg())
	placement := tr.Placement(6000)
	if len(placement) != len(tr.Files) {
		t.Fatalf("placement length %d", len(placement))
	}
	for rank, hosts := range placement {
		want := tr.Files[rank].Replicas
		if want > 6000 {
			want = 6000
		}
		if len(hosts) != want {
			t.Fatalf("rank %d placed %d, want %d", rank, len(hosts), want)
		}
		seen := map[int32]bool{}
		for _, h := range hosts {
			if h < 0 || h >= 6000 {
				t.Fatalf("host %d out of range", h)
			}
			if seen[h] {
				t.Fatalf("rank %d placed twice on host %d", rank, h)
			}
			seen[h] = true
		}
	}
}

func TestMatchingFilesContainTarget(t *testing.T) {
	tr := Generate(smallCfg())
	matches := tr.MatchingFiles()
	for qi, q := range tr.Queries {
		found := false
		for _, rank := range matches[qi] {
			if rank == q.TargetRank {
				found = true
			}
			// Every reported match must contain all query terms.
			set := map[string]bool{}
			for _, term := range tr.Files[rank].Terms {
				set[term] = true
			}
			for _, term := range q.Terms {
				if !set[term] {
					t.Fatalf("query %d: match %d lacks term %q", qi, rank, term)
				}
			}
		}
		if !found {
			t.Fatalf("query %d: target %d not among its own matches", qi, q.TargetRank)
		}
	}
}

func TestFrequencyTables(t *testing.T) {
	tr := Generate(smallCfg())
	tf := tr.TermInstanceFrequency()
	if len(tf) == 0 {
		t.Fatal("no term frequencies")
	}
	total := 0
	for _, v := range tf {
		total += v
	}
	// Each instance contributes len(terms) entries.
	wantMin := tr.TotalInstances() * 3 // MinTermsPerFile
	if total < wantMin {
		t.Errorf("term freq mass %d < %d", total, wantMin)
	}
	pf := tr.PairInstanceFrequency()
	if len(pf) == 0 {
		t.Fatal("no pair frequencies")
	}
}

func TestVocabularyShape(t *testing.T) {
	tr := Generate(smallCfg())
	for _, f := range tr.Files[:100] {
		if !strings.HasSuffix(f.Name, ".mp3") {
			t.Fatalf("filename %q lacks extension", f.Name)
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	cfg := smallCfg()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		Generate(cfg)
	}
}

func BenchmarkMatchingFiles(b *testing.B) {
	tr := Generate(smallCfg())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.MatchingFiles()
	}
}
