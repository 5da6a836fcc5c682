package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"piersearch/internal/codec"
	"piersearch/internal/dht"
	"piersearch/internal/telemetry"
)

// indexShards mirrors the stripe count of the in-memory store: keys are
// SHA-1-derived, so the leading ID byte balances a power-of-two stripe.
const indexShards = 16

// maxCommitBatch bounds how many queued Puts one group commit absorbs.
const maxCommitBatch = 256

// errClosed reports an operation against a closed store.
var errClosed = errors.New("store: closed")

// Options configures a Disk store. The zero value is usable.
type Options struct {
	// RotateBytes seals the WAL into a segment once it passes this size.
	// Default 4 MiB.
	RotateBytes int64
	// Sync fsyncs every group commit before acknowledging it, making
	// acknowledged writes durable against power loss, not just process
	// death. Default false: the paper's soft state is republished
	// periodically anyway, and a missed fsync costs at most one republish
	// interval of postings. Close and seals always fsync.
	Sync bool
	// CompactFraction triggers background compaction when the dead-byte
	// fraction of the sealed segments exceeds it. Default 0.5; negative
	// disables automatic compaction (Compact can still be called).
	CompactFraction float64
	// CompactMinBytes is the minimum dead-byte volume before automatic
	// compaction fires, so small stores do not churn. Default 256 KiB.
	CompactMinBytes int64
	// Now is the store clock, on the same time base as the owning node's
	// dht.Config.Clock: it stamps recovered values at open (see the
	// restart-semantics section of the package docs) and drives the
	// TTL awareness of background compaction. Default: wall time since
	// Open.
	Now func() time.Duration
	// Logger receives the store's operational log events (recovery
	// summary, compaction results, commit errors). Nil silences them.
	Logger *telemetry.Logger
	// Tracer, when set, records a span per group commit and per
	// compaction run into its ring, each as its own root trace.
	Tracer *telemetry.Tracer
	// Metrics, when set, receives the store's counters and gauges
	// (store.wal.*, store.compact.*, store.live_bytes, ...).
	Metrics *telemetry.Registry
}

func (o Options) normalize() Options {
	if o.RotateBytes <= 0 {
		o.RotateBytes = 4 << 20
	}
	if o.CompactFraction == 0 {
		o.CompactFraction = 0.5
	}
	if o.CompactMinBytes <= 0 {
		o.CompactMinBytes = 256 << 10
	}
	if o.Now == nil {
		start := time.Now()
		o.Now = func() time.Duration { return time.Since(start) }
	}
	return o
}

// entry is one live value in the in-memory index: everything needed to
// serve Get except the payload, which stays on disk.
type entry struct {
	file     uint64 // owning log's sequence number
	off      int64  // absolute offset of the data bytes
	dlen     int
	hash     uint64 // FNV-1a of the payload; cheap dedup pre-filter
	pub      dht.ID
	storedAt time.Duration
	ttl      time.Duration
}

func (e entry) expired(now time.Duration) bool {
	return e.ttl > 0 && now > e.storedAt+e.ttl
}

type indexShard struct {
	mu   sync.Mutex
	keys map[dht.ID][]entry
}

// logFile is one on-disk log: the active WAL or a sealed segment.
type logFile struct {
	seq  uint64
	path string
	f    *os.File
	size atomic.Int64 // bytes written, header included
	live atomic.Int64 // payload bytes referenced by live index entries
	dead atomic.Int64 // payload bytes superseded, expired or deleted
	// pending tracks acknowledged commits whose index insert has not
	// landed yet; compaction waits it out before snapshotting, so no
	// entry can appear pointing into a file compaction is about to delete.
	pending sync.WaitGroup
}

func (lf *logFile) retire(n int64) {
	lf.live.Add(-n)
	lf.dead.Add(n)
}

// Recovery describes what Open found and repaired.
type Recovery struct {
	Files          int   // log files replayed
	Records        int   // records applied
	Values         int   // live values after replay
	TornFiles      int   // files whose torn tail was truncated
	TruncatedBytes int64 // bytes discarded from torn tails
}

type commitReq struct {
	rec  []byte
	off  int64 // absolute record offset, set by the committer
	done chan commitRes
}

type commitRes struct {
	file *logFile
	off  int64
	err  error
}

// Disk is the log-structured, disk-backed dht.Storage implementation.
// See the package documentation for the design. All methods are safe for
// concurrent use.
type Disk struct {
	dir  string
	opts Options

	lock *os.File

	shards [indexShards]indexShard

	fileMu  sync.RWMutex
	files   map[uint64]*logFile
	active  *logFile // also present in files; swapped by the committer
	nextSeq uint64   // committer-owned after Open returns

	commitCh chan *commitReq
	rotateCh chan chan rotateRes
	stopCh   chan struct{}
	wg       sync.WaitGroup
	// failed poisons the log after a partial append that could not be
	// rolled back: a torn record mid-file would silently truncate every
	// later commit on replay, so no later commit may be acknowledged.
	failed atomic.Bool

	compactMu   sync.Mutex
	compactKick chan struct{}

	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error

	liveBytes atomic.Int64
	recovery  Recovery
	met       diskMetrics
}

type rotateRes struct {
	out uint64 // sequence number reserved for the compaction output
	err error
}

var _ dht.Storage = (*Disk)(nil)

// Open opens (creating if needed) the store rooted at dir, replays the
// logs found there, seals any recovered WAL, and starts the group
// committer and the background compactor. The directory is advisorily
// locked against concurrent opens until Close.
func Open(dir string, opts Options) (*Disk, error) {
	opts = opts.normalize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	d := &Disk{
		dir:         dir,
		opts:        opts,
		lock:        lock,
		files:       make(map[uint64]*logFile),
		commitCh:    make(chan *commitReq), // unbuffered: see Put
		rotateCh:    make(chan chan rotateRes),
		stopCh:      make(chan struct{}),
		compactKick: make(chan struct{}, 1),
	}
	for i := range d.shards {
		d.shards[i].keys = make(map[dht.ID][]entry)
	}
	if err := d.load(); err != nil {
		unlockDir(lock) //nolint:errcheck // already failing
		return nil, err
	}
	d.registerMetrics(opts.Metrics)
	d.wg.Add(2)
	go d.committer()
	go d.compactLoop()
	return d, nil
}

func (d *Disk) logf(format string, args ...any) {
	d.opts.Logger.Logf(format, args...)
}

func (d *Disk) shard(key dht.ID) *indexShard {
	return &d.shards[key[0]&(indexShards-1)]
}

func (d *Disk) fileBySeq(seq uint64) *logFile {
	d.fileMu.RLock()
	f := d.files[seq]
	d.fileMu.RUnlock()
	return f
}

func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.log", seq))
}

func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%016d.seg", seq))
}

// createLog creates a fresh log file with its header written.
func (d *Disk) createLog(seq uint64) (*logFile, error) {
	path := walPath(d.dir, seq)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: create log: %w", err)
	}
	if _, err := f.Write(appendHeader(nil)); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: write log header: %w", err)
	}
	lf := &logFile{seq: seq, path: path, f: f}
	lf.size.Store(headerLen)
	return lf, nil
}

// load scans dir, replays every log in sequence order, truncates torn
// tails, seals recovered WALs into segments, and opens a fresh WAL.
func (d *Disk) load() error {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	type found struct {
		seq  uint64
		path string
		wal  bool
	}
	var logs []found
	for _, de := range entries {
		name := de.Name()
		var seq uint64
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// Unfinished compaction output: never referenced, remove.
			os.Remove(filepath.Join(d.dir, name)) //nolint:errcheck // best effort
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if _, err := fmt.Sscanf(name, "wal-%d.log", &seq); err == nil {
				logs = append(logs, found{seq, filepath.Join(d.dir, name), true})
			}
		case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg"):
			if _, err := fmt.Sscanf(name, "seg-%d.seg", &seq); err == nil {
				logs = append(logs, found{seq, filepath.Join(d.dir, name), false})
			}
		}
	}
	sort.Slice(logs, func(i, j int) bool { return logs[i].seq < logs[j].seq })

	rebase := d.opts.Now()
	for _, lg := range logs {
		f, err := os.OpenFile(lg.path, os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("store: open %s: %w", lg.path, err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("store: stat %s: %w", lg.path, err)
		}
		if st.Size() == 0 {
			// Crash between create and header write: never held data.
			f.Close()
			os.Remove(lg.path) //nolint:errcheck // best effort
			continue
		}
		lf := &logFile{seq: lg.seq, path: lg.path, f: f}
		d.files[lg.seq] = lf
		if lg.seq >= d.nextSeq {
			d.nextSeq = lg.seq + 1
		}
		clean, rerr := replayLog(f, st.Size(), func(rec record, payloadOff int64) error {
			d.recovery.Records++
			switch rec.op {
			case opPut:
				e := entry{
					file:     lf.seq,
					off:      payloadOff + int64(rec.dataOff),
					dlen:     len(rec.data),
					hash:     hash64(rec.data),
					pub:      rec.pub,
					storedAt: rebase,
					ttl:      rec.ttl,
				}
				d.insertEntry(rec.key, e, rec.data, lf)
			case opDelete:
				d.removeKey(rec.key)
			}
			return nil
		})
		if rerr == errTornTail {
			d.recovery.TornFiles++
			d.recovery.TruncatedBytes += st.Size() - clean
			if err := f.Truncate(clean); err != nil {
				return fmt.Errorf("store: truncate torn tail of %s: %w", lg.path, err)
			}
			if err := f.Sync(); err != nil {
				return fmt.Errorf("store: sync %s: %w", lg.path, err)
			}
		} else if rerr != nil {
			return fmt.Errorf("store: replay %s: %w", lg.path, rerr)
		}
		lf.size.Store(clean)
		d.recovery.Files++

		if clean <= headerLen {
			// Nothing (left) in it: drop rather than keep an empty log.
			delete(d.files, lg.seq)
			f.Close()
			os.Remove(lg.path) //nolint:errcheck // best effort
			continue
		}
		if lg.wal {
			// Seal the recovered WAL: it is immutable history now.
			np := segPath(d.dir, lg.seq)
			if err := os.Rename(lg.path, np); err != nil {
				return fmt.Errorf("store: seal recovered wal: %w", err)
			}
			lf.path = np
		}
	}

	for i := range d.shards {
		for _, vs := range d.shards[i].keys {
			d.recovery.Values += len(vs)
		}
	}
	if d.recovery.Files > 0 {
		d.opts.Logger.Info("store: recovery complete",
			"values", d.recovery.Values, "records", d.recovery.Records, "logs", d.recovery.Files,
			"torn_tails", d.recovery.TornFiles, "truncated_bytes", d.recovery.TruncatedBytes)
	}

	active, err := d.createLog(d.nextSeq)
	if err != nil {
		return err
	}
	d.nextSeq++
	d.files[active.seq] = active
	d.active = active
	return nil
}

// Recovery returns what Open found and repaired.
func (d *Disk) Recovery() Recovery { return d.recovery }

// hash64 is FNV-1a over b: the index's cheap equality pre-filter.
func hash64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// sameData reports whether e's on-disk payload equals data. It is only
// called when length and hash already match, so a read failure (the file
// vanished under a racing close) errs toward "same": a 64-bit FNV match at
// equal length is overwhelmingly the same payload, and treating it as a
// refresh cannot lose data — the new record carries the same bytes.
func (d *Disk) sameData(e *entry, data []byte) bool {
	f := d.fileBySeq(e.file)
	if f == nil {
		return true
	}
	buf := codec.GetBuf()
	if cap(buf) < e.dlen {
		buf = make([]byte, e.dlen)
	}
	buf = buf[:e.dlen]
	_, err := f.f.ReadAt(buf, e.off)
	same := err != nil || string(buf) == string(data)
	codec.PutBuf(buf)
	return same
}

// insertEntry adds e (whose payload bytes are data, already committed to
// newFile) to the index, refreshing an existing value with the same
// (publisher, payload). It reports whether the value was new and keeps the
// per-file live/dead accounting.
func (d *Disk) insertEntry(key dht.ID, e entry, data []byte, newFile *logFile) bool {
	sh := d.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	vs := sh.keys[key]
	for i := range vs {
		old := &vs[i]
		if old.pub == e.pub && old.dlen == e.dlen && old.hash == e.hash && d.sameData(old, data) {
			if of := d.fileBySeq(old.file); of != nil {
				of.retire(int64(old.dlen))
			}
			newFile.live.Add(int64(e.dlen))
			*old = e
			return false
		}
	}
	sh.keys[key] = append(vs, e)
	newFile.live.Add(int64(e.dlen))
	d.liveBytes.Add(int64(e.dlen))
	return true
}

// retireEntry accounts one index entry's death.
func (d *Disk) retireEntry(e entry) {
	if f := d.fileBySeq(e.file); f != nil {
		f.retire(int64(e.dlen))
	}
	d.liveBytes.Add(-int64(e.dlen))
}

// removeKey drops every entry under key.
func (d *Disk) removeKey(key dht.ID) {
	sh := d.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, e := range sh.keys[key] {
		d.retireEntry(e)
	}
	delete(sh.keys, key)
}

// commit hands one encoded record to the group committer and waits for it
// to reach the log. On success the owning file's pending counter is held;
// the caller must release it with file.pending.Done() once its index
// update lands.
func (d *Disk) commit(rec []byte) (commitRes, bool) {
	req := &commitReq{rec: rec, done: make(chan commitRes, 1)}
	select {
	case d.commitCh <- req:
	case <-d.stopCh:
		return commitRes{}, false
	}
	res := <-req.done
	if res.err != nil {
		d.logf("store: commit: %v", res.err)
		return commitRes{}, false
	}
	return res, true
}

// Put implements dht.Storage: it group-commits a put record to the WAL,
// then publishes the value in the index. It reports whether the value was
// new (false for a refresh of the same publisher and payload). Put on a
// closed store is a no-op returning false.
func (d *Disk) Put(key dht.ID, v dht.StoredValue) bool {
	if d.closed.Load() {
		return false
	}
	rec, dataOff := appendRecord(codec.GetBuf(), opPut, key, v)
	res, ok := d.commit(rec)
	codec.PutBuf(rec)
	if !ok {
		return false
	}
	e := entry{
		file:     res.file.seq,
		off:      res.off + int64(dataOff),
		dlen:     len(v.Data),
		hash:     hash64(v.Data),
		pub:      v.Publisher,
		storedAt: v.StoredAt,
		ttl:      v.TTL,
	}
	isNew := d.insertEntry(key, e, v.Data, res.file)
	res.file.pending.Done()
	return isNew
}

// Get implements dht.Storage: it returns the live values under key at
// time now, pruning expired index entries and reading payloads off the
// logs. The shard lock is NOT held across the disk reads — the
// concurrent pipeline drives many Gets per shard at once and they must
// overlap their I/O — so a read can race a compaction that deletes the
// file under it; that read fails with a closed/short-read error and the
// whole lookup retries against the repointed index.
func (d *Disk) Get(key dht.ID, now time.Duration) []dht.StoredValue {
	sh := d.shard(key)
	for attempt := 0; ; attempt++ {
		sh.mu.Lock()
		vs, ok := sh.keys[key]
		if !ok {
			sh.mu.Unlock()
			return nil
		}
		entries := make([]entry, len(vs))
		copy(entries, vs)
		sh.mu.Unlock()

		out := make([]dht.StoredValue, 0, len(entries))
		var prune []entry // expired or lost entries, removed under re-lock
		retry := false
		for _, e := range entries {
			if e.expired(now) {
				prune = append(prune, e)
				continue
			}
			f := d.fileBySeq(e.file)
			if f == nil {
				// Compaction repointed this entry and dropped the file
				// between our snapshot and now: re-snapshot.
				retry = true
				break
			}
			data := make([]byte, e.dlen)
			if _, err := f.f.ReadAt(data, e.off); err != nil {
				if errors.Is(err, os.ErrClosed) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
					// Racing compaction (file closed/removed mid-read) or
					// a racing Close. Retry against the fresh index; on a
					// closed store the bounded retries just run out.
					retry = true
					break
				}
				d.logf("store: read %s @%d: %v", f.path, e.off, err)
				prune = append(prune, e)
				continue
			}
			out = append(out, dht.StoredValue{
				Data:      data,
				Publisher: e.pub,
				StoredAt:  e.storedAt,
				TTL:       e.ttl,
			})
		}
		if len(prune) > 0 {
			sh.mu.Lock()
			cur := sh.keys[key]
			live := cur[:0]
			for _, e := range cur {
				dead := false
				for _, p := range prune {
					// Match by location: a concurrent refresh moves the
					// entry to a new (file, off) and must not be pruned.
					if p.file == e.file && p.off == e.off {
						dead = true
						break
					}
				}
				if dead {
					d.retireEntry(e)
				} else {
					live = append(live, e)
				}
			}
			if len(live) == 0 {
				delete(sh.keys, key)
			} else {
				sh.keys[key] = live
			}
			sh.mu.Unlock()
		}
		if retry && attempt < 3 {
			continue
		}
		if len(out) == 0 {
			return nil
		}
		return out
	}
}

// Delete implements dht.Storage: it durably logs a tombstone, then drops
// every value under key.
func (d *Disk) Delete(key dht.ID) {
	if d.closed.Load() {
		return
	}
	rec, _ := appendRecord(codec.GetBuf(), opDelete, key, dht.StoredValue{})
	res, ok := d.commit(rec)
	codec.PutBuf(rec)
	if !ok {
		return
	}
	d.removeKey(key)
	res.file.pending.Done()
}

// Keys implements dht.Storage.
func (d *Disk) Keys() []dht.ID {
	var keys []dht.ID
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		for k := range sh.keys {
			keys = append(keys, k)
		}
		sh.mu.Unlock()
	}
	return keys
}

// Len implements dht.Storage.
func (d *Disk) Len() int {
	n := 0
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		n += len(sh.keys)
		sh.mu.Unlock()
	}
	return n
}

// ValueCount implements dht.Storage.
func (d *Disk) ValueCount() int {
	n := 0
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		for _, vs := range sh.keys {
			n += len(vs)
		}
		sh.mu.Unlock()
	}
	return n
}

// Bytes implements dht.Storage: live payload bytes (resident index
// overhead and on-disk garbage excluded).
func (d *Disk) Bytes() int { return int(d.liveBytes.Load()) }

// DiskSize returns the total bytes of every log file, garbage included —
// the quantity compaction shrinks.
func (d *Disk) DiskSize() int64 {
	d.fileMu.RLock()
	defer d.fileMu.RUnlock()
	var n int64
	for _, f := range d.files {
		n += f.size.Load()
	}
	return n
}

// Segments returns how many sealed segments exist alongside the active WAL.
func (d *Disk) Segments() int {
	d.fileMu.RLock()
	defer d.fileMu.RUnlock()
	n := len(d.files)
	if d.active != nil {
		n--
	}
	return n
}

// Expire implements dht.Storage: it drops every TTL-expired index entry
// and returns the count. The space itself is reclaimed by compaction,
// which Expire kicks when enough garbage has accumulated.
func (d *Disk) Expire(now time.Duration) int {
	removed := 0
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		for k, vs := range sh.keys {
			live := vs[:0]
			for _, e := range vs {
				if e.expired(now) {
					d.retireEntry(e)
					removed++
				} else {
					live = append(live, e)
				}
			}
			if len(live) == 0 {
				delete(sh.keys, k)
			} else {
				sh.keys[k] = live
			}
		}
		sh.mu.Unlock()
	}
	if removed > 0 {
		d.maybeKickCompact()
	}
	return removed
}

// committer is the single goroutine that appends to the active WAL. Each
// wake-up absorbs every queued request into one write (group commit),
// optionally fsyncs, then acknowledges the batch. It also serves rotation
// requests from Compact, so all file swaps happen on one goroutine.
func (d *Disk) committer() {
	defer d.wg.Done()
	var batch []*commitReq
	var buf []byte
	for {
		select {
		case req := <-d.commitCh:
			batch = append(batch[:0], req)
		drain:
			for len(batch) < maxCommitBatch {
				select {
				case r := <-d.commitCh:
					batch = append(batch, r)
				default:
					break drain
				}
			}
			buf = d.commitBatch(batch, buf[:0])
		case ch := <-d.rotateCh:
			ch <- d.rotateForCompact()
		case <-d.stopCh:
			return
		}
	}
}

// commitBatch writes one group of records, acknowledges each, and rotates
// the WAL if it outgrew RotateBytes. Returns the scratch buffer for reuse.
func (d *Disk) commitBatch(batch []*commitReq, buf []byte) []byte {
	if d.failed.Load() {
		for _, r := range batch {
			r.done <- commitRes{err: errClosed}
		}
		return buf
	}
	sp := d.startSpan("store.commit")
	if sp != nil {
		sp.SetAttr("records", strconv.Itoa(len(batch)))
	}
	active := d.active
	base := active.size.Load()
	for _, r := range batch {
		r.off = base + int64(len(buf))
		buf = append(buf, r.rec...)
	}
	if sp != nil {
		sp.SetAttr("bytes", strconv.Itoa(len(buf)))
	}
	n, err := active.f.Write(buf)
	if err == nil && d.opts.Sync {
		err = active.f.Sync()
		d.met.fsyncs.Inc()
	}
	d.met.commits.Inc()
	d.met.records.Add(int64(len(batch)))
	if err != nil {
		d.met.commitErrors.Inc()
	}
	sp.FinishErr(err)
	if err != nil && n > 0 {
		// A partial record now sits at base. Replay stops at the first
		// torn record, so if it stays in front of later commits those
		// commits would be acknowledged and then silently truncated on
		// recovery. Roll the file back to the batch's base; if that
		// fails, poison the log so nothing later is acknowledged.
		if terr := d.rollbackTo(active, base); terr != nil {
			d.failed.Store(true)
			d.logf("store: log poisoned, no further commits: %v", terr)
		}
	}
	if err == nil {
		active.size.Add(int64(n))
	}
	for _, r := range batch {
		if err != nil {
			r.done <- commitRes{err: err}
			continue
		}
		active.pending.Add(1)
		r.done <- commitRes{file: active, off: r.off}
	}
	if err == nil && active.size.Load() >= d.opts.RotateBytes {
		d.rotate()
	}
	return buf
}

// rollbackTo restores the active log to size base after a failed append,
// so the fd position and on-disk bytes agree with the accounting again.
func (d *Disk) rollbackTo(active *logFile, base int64) error {
	if err := active.f.Truncate(base); err != nil {
		return fmt.Errorf("store: rollback truncate: %w", err)
	}
	if _, err := active.f.Seek(base, io.SeekStart); err != nil {
		return fmt.Errorf("store: rollback seek: %w", err)
	}
	return nil
}

// rotate seals the active WAL into a segment and opens a fresh one.
// Committer goroutine only.
func (d *Disk) rotate() {
	old := d.active
	d.met.rotates.Inc()
	d.met.fsyncs.Inc()
	if err := old.f.Sync(); err != nil {
		d.logf("store: sync before seal: %v", err)
	}
	np := segPath(d.dir, old.seq)
	if err := os.Rename(old.path, np); err != nil {
		d.logf("store: seal wal: %v", err)
		return
	}
	old.path = np
	nf, err := d.createLog(d.nextSeq)
	if err != nil {
		// Degraded: keep appending to the sealed file; replay treats the
		// two names identically.
		d.logf("store: rotate: %v", err)
		return
	}
	d.nextSeq++
	d.fileMu.Lock()
	d.files[nf.seq] = nf
	d.active = nf
	d.fileMu.Unlock()
	d.maybeKickCompact()
}

// rotateForCompact seals the active WAL (so it becomes a compaction
// input) and reserves the next sequence number for the compaction output,
// placing it between every input and the fresh WAL in replay order.
// Committer goroutine only.
func (d *Disk) rotateForCompact() rotateRes {
	old := d.active
	if err := old.f.Sync(); err != nil {
		return rotateRes{err: fmt.Errorf("store: sync before seal: %w", err)}
	}
	np := segPath(d.dir, old.seq)
	if err := os.Rename(old.path, np); err != nil {
		return rotateRes{err: fmt.Errorf("store: seal wal: %w", err)}
	}
	old.path = np
	out := d.nextSeq
	d.nextSeq++
	nf, err := d.createLog(d.nextSeq)
	if err != nil {
		return rotateRes{err: err}
	}
	d.nextSeq++
	d.fileMu.Lock()
	d.files[nf.seq] = nf
	d.active = nf
	d.fileMu.Unlock()
	return rotateRes{out: out}
}

// Close stops the committer and compactor, fsyncs and closes every log,
// and releases the directory lock. Acknowledged writes are on disk when
// it returns. Idempotent.
func (d *Disk) Close() error {
	d.closeOnce.Do(func() {
		d.closed.Store(true)
		close(d.stopCh)
		d.wg.Wait()
		var first error
		d.fileMu.Lock()
		for _, f := range d.files {
			if err := f.f.Sync(); err != nil && first == nil {
				first = err
			}
			if err := f.f.Close(); err != nil && first == nil {
				first = err
			}
		}
		d.fileMu.Unlock()
		if err := unlockDir(d.lock); err != nil && first == nil {
			first = err
		}
		d.closeErr = first
	})
	return d.closeErr
}

// Crash simulates an unclean process death for fault-injection tests: it
// abandons all background work and releases the directory lock WITHOUT
// flushing, fsyncing or sealing, leaving the on-disk state exactly as a
// kill would. Real callers use Close.
//
//lint:allow unusedexport crash-recovery tests of store and, per ROADMAP item 11, of the cluster
func (d *Disk) Crash() {
	d.closeOnce.Do(func() {
		d.closed.Store(true)
		close(d.stopCh)
		d.wg.Wait()
		d.fileMu.Lock()
		for _, f := range d.files {
			f.f.Close() //nolint:errcheck // crashing
		}
		d.fileMu.Unlock()
		unlockDir(d.lock) //nolint:errcheck // crashing
	})
}
