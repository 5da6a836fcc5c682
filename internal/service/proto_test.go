package service

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"piersearch/internal/codec"
	"piersearch/internal/pier"
	"piersearch/internal/piersearch"
)

func TestOpenQueryRoundTrip(t *testing.T) {
	q := OpenQuery{Version: Version, Text: "madonna like a prayer", Strategy: piersearch.StrategyCache, Limit: 50}
	// The v4 layout: kind, version, text, strategy, limit, trace context.
	want := codec.AppendString([]byte{MsgOpenQuery, Version}, q.Text)
	want = append(want, byte(q.Strategy))
	want = codec.AppendUvarint(want, 50)
	want = append(want, 0) // untraced
	if frame := EncodeOpenQuery(q); !bytes.Equal(frame, want) {
		t.Errorf("frame = %x, want %x", frame, want)
	}
	got, err := Decode(EncodeOpenQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if *(got.(*OpenQuery)) != q {
		t.Errorf("round trip = %+v, want %+v", got, q)
	}

	eq, err := Decode(EncodeExplain(q))
	if err != nil {
		t.Fatal(err)
	}
	if eq.(*ExplainQuery).OpenQuery != q {
		t.Errorf("explain round trip = %+v", eq)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	files := []piersearch.File{
		{Name: "a.mp3", Size: 100, Host: "10.0.0.1", Port: 6346},
		{Name: "b side demo.mp3", Size: 2_000_000, Host: "10.0.0.2", Port: 7000},
	}
	var results []piersearch.Result
	for _, f := range files {
		results = append(results, piersearch.Result{File: f, FileID: f.ID()})
	}
	got, err := Decode(EncodeBatch(results))
	if err != nil {
		t.Fatal(err)
	}
	b := got.(*Batch)
	if len(b.Results) != 2 {
		t.Fatalf("%d results", len(b.Results))
	}
	for i := range results {
		if b.Results[i] != results[i] {
			t.Errorf("result %d = %+v, want %+v", i, b.Results[i], results[i])
		}
	}
}

// TestEncodeBatchShipsTheCarriedID: a batch is encoded from the FileID each
// result carries, with no hash computed. For an honestly published Item —
// stored ID = hash of its fields — the bytes are exactly the encoding the
// publisher's own File.ItemTuple() gives (what EncodeBatch hashed its way
// to before); an Item stored under any other ID ships that stored ID.
func TestEncodeBatchShipsTheCarriedID(t *testing.T) {
	files := []piersearch.File{
		{Name: "a.mp3", Size: 100, Host: "10.0.0.1", Port: 6346},
		{Name: "b side demo.mp3", Size: 2_000_000, Host: "10.0.0.2", Port: 7000},
	}
	var results []piersearch.Result
	golden := []byte{MsgBatch, byte(len(files))}
	for _, f := range files {
		results = append(results, piersearch.Result{File: f, FileID: f.ID()})
		golden = f.ItemTuple().Encode(golden)
	}
	if got := EncodeBatch(results); !bytes.Equal(got, golden) {
		t.Errorf("honest Items: batch differs from the File.ItemTuple encoding\n got %x\nwant %x", got, golden)
	}

	forged := piersearch.Result{File: files[0], FileID: piersearch.FileID{0xde, 0xad}}
	if forged.FileID == forged.File.ID() {
		t.Fatal("fixture: forged ID equals the hash")
	}
	got, err := Decode(EncodeBatch([]piersearch.Result{forged}))
	if err != nil {
		t.Fatal(err)
	}
	if r := got.(*Batch).Results[0]; r != forged {
		t.Errorf("forged Item arrived as %+v, want the stored ID %s", r, forged.FileID)
	}
}

func TestDoneErrorPublishRoundTrip(t *testing.T) {
	d := Done{
		Stats: piersearch.SearchStats{
			OpStats:  pier.OpStats{Messages: 40, Bytes: 20_000, Hops: 14, PostingShipped: 57, MaxInFlight: 8},
			Strategy: piersearch.StrategyJoin, Keywords: 3, Matches: 12, MatchBytes: 850,
			Wall: 1500 * time.Millisecond,
		},
		Explain: "Limit(n=50) [tuples=12]",
	}
	got, err := Decode(EncodeDone(d))
	if err != nil {
		t.Fatal(err)
	}
	gd := got.(*Done)
	if gd.Stats != d.Stats || gd.Explain != d.Explain || len(gd.Spans) != 0 {
		t.Errorf("done round trip = %+v, want %+v", got, d)
	}

	e := &Error{Code: CodeOverloaded, Msg: "busy"}
	gotE, err := Decode(EncodeError(e))
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(gotE.(*Error), &Error{Code: CodeOverloaded}) || gotE.(*Error).Msg != "busy" {
		t.Errorf("error round trip = %+v", gotE)
	}

	p := PublishReq{Version: Version, File: piersearch.File{Name: "x.mp3", Size: 9, Host: "h", Port: 1}, Mode: piersearch.ModeBoth}
	gotP, err := Decode(EncodePublish(p))
	if err != nil {
		t.Fatal(err)
	}
	if *(gotP.(*PublishReq)) != p {
		t.Errorf("publish round trip = %+v", gotP)
	}

	pd := PublishDone{Stats: piersearch.PublishStats{Tuples: 7, Keywords: 3, Messages: 20, Bytes: 5000, MaxInFlight: 4, Wall: time.Second}}
	gotPD, err := Decode(EncodePublishDone(pd))
	if err != nil {
		t.Fatal(err)
	}
	if *(gotPD.(*PublishDone)) != pd {
		t.Errorf("publish done round trip = %+v", gotPD)
	}
}

func TestDecodeRejectsHostileInput(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},                                      // kind zero
		{99},                                     // unknown kind
		{MsgOpenQuery},                           // truncated
		{MsgBatch, 0xff, 0xff, 0xff, 0xff, 0x0f}, // absurd batch count
		{MsgDone, 1},                             // truncated stats
		{MsgError},                               // no code
		{MsgCancel, 1},                           // cancel with a body
		{MsgPublish, 1, 0xfe},                    // truncated publish
		append([]byte{MsgExplainResult}, bytes.Repeat([]byte{0xff}, 9)...), // huge length prefix
	}
	for _, buf := range cases {
		if _, err := Decode(buf); err == nil {
			t.Errorf("hostile input %v accepted", buf)
		}
	}
	// Trailing bytes after a well-formed message are rejected.
	good := EncodeOpenQuery(OpenQuery{Version: Version, Text: "x"})
	if _, err := Decode(append(good, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestDecodeBatchRejectsForeignTuples(t *testing.T) {
	// A batch whose tuple is not an Item tuple must error, not crash.
	payload := []byte{MsgBatch, 1}
	tuple := piersearch.File{Name: "n", Size: 1, Host: "h", Port: 2}.ItemTuple()[:2]
	payload = tuple.Encode(payload)
	if _, err := Decode(payload); err == nil {
		t.Error("foreign tuple batch accepted")
	}
}

func TestCodeStrings(t *testing.T) {
	for code, want := range map[Code]string{
		CodeBadRequest: "bad-request",
		CodeVersion:    "unsupported-version",
		CodeOverloaded: "overloaded",
		CodeCanceled:   "canceled",
		CodeInternal:   "internal",
		Code(42):       "code-42",
	} {
		if got := code.String(); got != want {
			t.Errorf("Code(%d).String() = %q, want %q", int(code), got, want)
		}
	}
	e := &Error{Code: CodeOverloaded, Msg: "m"}
	if !strings.Contains(e.Error(), "overloaded") {
		t.Errorf("Error() = %q", e.Error())
	}
}
