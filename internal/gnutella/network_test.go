package gnutella

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"piersearch/internal/piersearch"
)

// goldenLibrary shares 1–3 files on most hosts, with band popularity
// Zipf-distributed, so the golden queries span popular, rare and absent
// items.
func goldenLibrary(topo *Topology) *Library {
	rng := rand.New(rand.NewSource(3))
	zipf := rand.NewZipf(rng, 1.2, 1, 39)
	lib := NewLibrary(topo, piersearch.Tokenizer{})
	for h := 0; h < topo.NumHosts(); h++ {
		for i := rng.Intn(4); i > 0; i-- {
			name := fmt.Sprintf("band%02d track%d.mp3", zipf.Uint64(), rng.Intn(5))
			lib.AddFile(h, SharedFile{Name: name, Size: 1000})
		}
	}
	return lib
}

var goldenQueries = [][]string{
	{"band00"}, {"band01", "track2"}, {"band02"}, {"band05", "track0"},
	{"band07"}, {"band10", "track4"}, {"band13"}, {"band17", "track1"},
	{"band20"}, {"band24", "track3"}, {"band28"}, {"band31", "track2"},
	{"band35"}, {"band38"}, {"band39", "track0"}, {"band00", "track3"},
	{"band03", "track1"}, {"band11"}, {"absent"}, {"band26", "track4"},
}

// goldenOutcome is what the golden test pins per query.
type goldenOutcome struct {
	results  int
	first    time.Duration
	messages int
	rounds   int
}

// TestOverlayGolden pins the overlay's exact event order. Twenty queries
// enter 3 s apart, so their floods and hits interleave in flight; every
// hop delay is drawn from the network's seeded rng in send order, and
// same-instant events fire in scheduling order. Any change to either
// shifts a first-result latency by nanoseconds or a message count, and
// the table below (recorded before the overlay moved onto simnet.Clock)
// stops matching.
func TestOverlayGolden(t *testing.T) {
	want := map[bool][]goldenOutcome{
		false: {
			{541, 0, 3234, 1},
			{46, 3250567003, 2966, 1},
			{166, 2676852626, 3050, 1},
			{20, 5646289306, 2901, 1},
			{44, 0, 2946, 1},
			{7, 6067412640, 2871, 1},
			{20, 5957987436, 2902, 1},
			{2, 6523710370, 2859, 1},
			{13, 6377959869, 2884, 1},
			{4, 4027871702, 2862, 1},
			{13, 6049623578, 2885, 1},
			{2, 5896015500, 2859, 1},
			{9, 6186027596, 2874, 1},
			{6, 5772520725, 2868, 1},
			{1, 6403371548, 2857, 1},
			{103, 2726660220, 3021, 1},
			{20, 0, 2891, 1},
			{29, 3135626905, 2906, 1},
			{0, -1, 2855, 1},
			{0, -1, 2855, 1},
		},
		true: {
			{52, 0, 23, 1},
			{20, 3478230596, 185, 2},
			{36, 2734427913, 59, 1},
			{20, 17742995160, 2719, 3},
			{27, 0, 320, 2},
			{7, 17957984241, 8598, 5},
			{20, 17729737903, 2471, 3},
			{2, 18637972988, 8432, 5},
			{13, 17414964651, 8041, 5},
			{4, 3503079590, 9321, 5},
			{13, 18133671892, 8257, 5},
			{2, 18750029684, 7975, 5},
			{9, 18556248453, 8076, 5},
			{6, 18289598411, 8215, 5},
			{1, 18978374342, 8374, 5},
			{77, 3409027867, 384, 2},
			{20, 0, 689, 2},
			{27, 2756480226, 712, 2},
			{0, -1, 8413, 5},
			{0, -1, 8286, 5},
		},
	}
	topo := smallTopo(t)
	lib := goldenLibrary(topo)
	for _, dyn := range []bool{false, true} {
		net := NewNetwork(topo, lib, NetworkConfig{DynamicQuery: dyn, Seed: 7})
		var qs []*QueryOutcome
		for i, terms := range goldenQueries {
			net.Clock.RunUntil(time.Duration(i) * 3 * time.Second)
			qs = append(qs, net.Query(HostID(i*61%topo.NumHosts()), terms))
		}
		net.Clock.Drain()
		for i, q := range qs {
			got := goldenOutcome{len(q.Results), q.FirstResultLatency(), q.Messages, q.Rounds}
			if got != want[dyn][i] {
				t.Errorf("dynamic=%v query %d %v: got %+v, want %+v", dyn, i, goldenQueries[i], got, want[dyn][i])
			}
		}
	}
}
