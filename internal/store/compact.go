package store

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"piersearch/internal/dht"
)

// maybeKickCompact schedules a background compaction when the sealed
// segments carry enough dead bytes to be worth rewriting.
func (d *Disk) maybeKickCompact() {
	if d.opts.CompactFraction < 0 {
		return
	}
	var dead, total int64
	d.fileMu.RLock()
	for _, f := range d.files {
		if f == d.active {
			continue
		}
		dd, ll := f.dead.Load(), f.live.Load()
		dead += dd
		total += dd + ll
	}
	d.fileMu.RUnlock()
	if dead < d.opts.CompactMinBytes || total == 0 {
		return
	}
	if float64(dead) <= d.opts.CompactFraction*float64(total) {
		return
	}
	select {
	case d.compactKick <- struct{}{}:
	default: // one pending kick is enough
	}
}

// compactLoop runs kicked compactions until the store closes.
func (d *Disk) compactLoop() {
	defer d.wg.Done()
	for {
		select {
		case <-d.stopCh:
			return
		case <-d.compactKick:
			if err := d.Compact(d.opts.Now()); err != nil && err != errClosed {
				d.opts.Logger.Error("store: background compaction failed", "err", err)
			}
		}
	}
}

// Compact merges every sealed segment (sealing the active WAL first) into
// one new segment, dropping TTL-expired entries as of now, superseded
// refreshes and deleted keys, then deletes the inputs. Reads and writes
// proceed concurrently: new records land in a fresh WAL ordered after the
// output, so replay order is preserved if the process dies at any point.
// One compaction runs at a time; concurrent callers serialize.
func (d *Disk) Compact(now time.Duration) error {
	sp := d.startSpan("store.compact")
	err := d.compact(now)
	sp.FinishErr(err)
	return err
}

// compact holds compactMu for the whole pass on purpose: it is the
// single-compaction admission gate, not a shard lock — nothing on the
// read or write path ever contends for it, so blocking under it (the
// rotate handshake below, the pending.Wait in step 2) is safe.
func (d *Disk) compact(now time.Duration) error {
	d.compactMu.Lock()
	defer d.compactMu.Unlock()
	if d.closed.Load() {
		return errClosed
	}

	// 1. Seal the WAL and reserve the output's slot in replay order.
	ch := make(chan rotateRes, 1)
	//lint:allow locksafe compactMu is the single-compaction gate, held across the pass by design
	select {
	case d.rotateCh <- ch:
	case <-d.stopCh:
		return errClosed
	}
	//lint:allow locksafe compactMu is the single-compaction gate, held across the pass by design
	rot := <-ch
	if rot.err != nil {
		return rot.err
	}
	outSeq := rot.out

	// 2. Snapshot the inputs and wait out in-flight index inserts, so
	// every acknowledged record below outSeq is visible in the index.
	inputs := make(map[uint64]*logFile)
	d.fileMu.RLock()
	for seq, f := range d.files {
		if seq < outSeq {
			inputs[seq] = f
		}
	}
	d.fileMu.RUnlock()
	for _, f := range inputs {
		//lint:allow locksafe compactMu is the single-compaction gate, held across the pass by design
		f.pending.Wait()
	}
	if len(inputs) == 0 {
		return nil
	}

	// 3. Snapshot the live, unexpired entries pointing into the inputs.
	// Expired entries are dropped from the index here (compaction's TTL
	// awareness); their space is reclaimed when the inputs are deleted.
	type moved struct {
		key dht.ID
		old entry
		new entry
	}
	var moves []moved
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		for k, vs := range sh.keys {
			live := vs[:0]
			for _, e := range vs {
				if _, in := inputs[e.file]; in && e.expired(now) {
					d.retireEntry(e)
					continue
				}
				live = append(live, e)
				if _, in := inputs[e.file]; in {
					moves = append(moves, moved{key: k, old: e})
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

	// Nothing live in the inputs: skip the rewrite and just drop them.
	if len(moves) == 0 {
		return d.dropInputs(inputs, 0, 0)
	}

	// 4. Stream the snapshot into the output segment. No locks held: the
	// inputs are immutable and only this goroutine deletes files.
	tmp := segPath(d.dir, outSeq) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if _, err := bw.Write(appendHeader(nil)); err != nil {
		f.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	off := int64(headerLen)
	var data, rec []byte
	written := int64(0)
	for i := range moves {
		m := &moves[i]
		src := inputs[m.old.file]
		if cap(data) < m.old.dlen {
			data = make([]byte, m.old.dlen)
		}
		data = data[:m.old.dlen]
		if _, err := src.f.ReadAt(data, m.old.off); err != nil {
			f.Close()
			os.Remove(tmp) //nolint:errcheck // best effort
			return fmt.Errorf("store: compact read %s: %w", src.path, err)
		}
		v := dht.StoredValue{Data: data, Publisher: m.old.pub, StoredAt: m.old.storedAt, TTL: m.old.ttl}
		var dataOff int
		rec, dataOff = appendRecord(rec[:0], opPut, m.key, v)
		if _, err := bw.Write(rec); err != nil {
			f.Close()
			os.Remove(tmp) //nolint:errcheck // best effort
			return fmt.Errorf("store: compact write: %w", err)
		}
		m.new = m.old
		m.new.file = outSeq
		m.new.off = off + int64(dataOff)
		off += int64(len(rec))
		written += int64(m.old.dlen)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp) //nolint:errcheck // best effort
		return fmt.Errorf("store: compact flush: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp) //nolint:errcheck // best effort
		return fmt.Errorf("store: compact sync: %w", err)
	}
	outPath := segPath(d.dir, outSeq)
	if err := os.Rename(tmp, outPath); err != nil {
		f.Close()
		os.Remove(tmp) //nolint:errcheck // best effort
		return fmt.Errorf("store: compact rename: %w", err)
	}
	out := &logFile{seq: outSeq, path: outPath, f: f}
	out.size.Store(off)
	out.live.Store(written)
	d.fileMu.Lock()
	d.files[outSeq] = out
	d.fileMu.Unlock()

	// 5. Repoint the index at the output. An entry that moved on in the
	// meantime (refreshed into the new WAL, deleted, expired) stays as it
	// is and its copy in the output becomes immediate garbage.
	for i := range moves {
		m := &moves[i]
		sh := d.shard(m.key)
		sh.mu.Lock()
		vs := sh.keys[m.key]
		found := false
		for j := range vs {
			if vs[j].file == m.old.file && vs[j].off == m.old.off {
				vs[j] = m.new
				found = true
				break
			}
		}
		sh.mu.Unlock()
		if !found {
			out.retire(int64(m.old.dlen))
		}
	}

	// 6. Drop the inputs: every live entry now points elsewhere.
	return d.dropInputs(inputs, off, len(moves))
}

// dropInputs removes compacted input logs from the registry and the
// filesystem, logging the reclaim.
func (d *Disk) dropInputs(inputs map[uint64]*logFile, outBytes int64, outValues int) error {
	var reclaimed int64
	d.fileMu.Lock()
	for seq, in := range inputs {
		delete(d.files, seq)
		reclaimed += in.size.Load()
	}
	d.fileMu.Unlock()
	for _, in := range inputs {
		in.f.Close() //nolint:errcheck // read-only by now
		if err := os.Remove(in.path); err != nil {
			d.opts.Logger.Error("store: compact remove failed", "path", in.path, "err", err)
		}
	}
	d.met.compactions.Inc()
	if freed := reclaimed - outBytes; freed > 0 {
		d.met.reclaimed.Add(freed)
	}
	d.opts.Logger.Info("store: compacted segments",
		"logs", len(inputs), "in_bytes", reclaimed, "out_bytes", outBytes, "live_values", outValues)
	return nil
}
