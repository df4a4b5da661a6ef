package ftl

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/checkin-kv/checkin/internal/sim"
)

// Device-level recovery (the paper's Section III-G): every programmed slot
// carries an out-of-band (OOB) record — the logical address it belongs to
// and a monotonic sequence number. Checkpoint remaps append alias records
// (the data-area address now also referencing the slot), and journal
// deletions append trim extents; both persist through the metadata-flush
// path backed by the device's power-loss capacitors. After a sudden power
// off, the FTL reconstructs the whole mapping table by scanning OOB areas
// in physical order and replaying alias/trim records in sequence order.

// oobRecord is what a slot's OOB area holds for recovery.
type oobRecord struct {
	lun int64
	seq uint64
}

// trimExtent is a persisted journal-deletion record.
type trimExtent struct {
	first, last int64 // logical unit range, inclusive
	seq         uint64
}

// aliasRecord binds a further logical unit to a slot (checkpoint remap).
// seq 0 marks a record dropped before its block erased.
type aliasRecord struct {
	sid int64
	lun int64
	seq uint64
}

// recoveryLog is the FTL's persistent recovery state: primary OOB per slot,
// alias records from remaps, and trim extents. In dftl mode each translation
// page's OOB additionally records the tvpn it holds (tp, indexed by physical
// page id; allocated only when the flash map is on), which is what rebuilds
// the global translation directory after a sudden power-off.
type recoveryLog struct {
	seq uint64
	oob []oobRecord // indexed by slot id; seq 0 = never written
	// aliases[b] lists block b's alias records in the order they were
	// noted; an erase truncates the list in place.
	aliases       [][]aliasRecord
	slotsPerBlock int64
	trims         []trimExtent
	tp            []int64 // pid → tvpn of the live translation page it holds (-1)

	// migrating is the block whose alias list preserveCopy last sorted by
	// slot (-1: none), and migrateNext the index of the first record not
	// yet consumed: the GC migrate pass moves a victim's slots in
	// ascending order, so its records are consumed in one forward walk.
	migrating   int
	migrateNext int
}

func newRecoveryLog(totalSlots, slotsPerBlock int64) *recoveryLog {
	return &recoveryLog{
		oob:           make([]oobRecord, totalSlots),
		aliases:       make([][]aliasRecord, totalSlots/slotsPerBlock),
		slotsPerBlock: slotsPerBlock,
		migrating:     -1,
	}
}

func (r *recoveryLog) next() uint64 {
	r.seq++
	return r.seq
}

func (r *recoveryLog) block(sid int64) int { return int(sid / r.slotsPerBlock) }

// noteWrite records sid's primary OOB. A slot is written only once between
// erases, so it holds no earlier record to drop (CheckInvariants checks
// that unwritten slots carry none).
func (r *recoveryLog) noteWrite(sid, lun int64) {
	r.oob[sid] = oobRecord{lun: lun, seq: r.next()}
}

func (r *recoveryLog) noteAlias(sid, lun int64) {
	b := r.block(sid)
	r.aliases[b] = append(r.aliases[b], aliasRecord{sid: sid, lun: lun, seq: r.next()})
}

func (r *recoveryLog) noteTrim(first, last int64) {
	r.trims = append(r.trims, trimExtent{first: first, last: last, seq: r.next()})
}

// noteErase drops every record of block b.
func (r *recoveryLog) noteErase(b int) {
	base := int64(b) * r.slotsPerBlock
	clear(r.oob[base : base+r.slotsPerBlock])
	r.aliases[b] = r.aliases[b][:0]
	if r.migrating == b {
		r.migrating = -1
	}
}

// slotAliases returns the alias records of sid, a slot of the block being
// migrated, as a sub-slice of that block's list. The first call for a block
// sorts its list by slot; later calls must come for ascending slots and
// resume where the previous one stopped, so a whole migration costs one
// sort and one walk.
func (r *recoveryLog) slotAliases(sid int64) []aliasRecord {
	b := r.block(sid)
	list := r.aliases[b]
	if r.migrating != b {
		slices.SortStableFunc(list, func(x, y aliasRecord) int { return cmp.Compare(x.sid, y.sid) })
		r.migrating, r.migrateNext = b, 0
	}
	i := r.migrateNext
	if i > 0 && list[i-1].sid >= sid {
		panic(fmt.Sprintf("ftl: block %d migrated out of slot order (slot %d after %d)", b, sid, list[i-1].sid))
	}
	for i < len(list) && list[i].sid < sid {
		i++
	}
	j := i
	for j < len(list) && list[j].sid == sid {
		j++
	}
	r.migrateNext = j
	return list[i:j]
}

// preserveCopy rewrites newSid's records to carry the sequence numbers of
// the oldSid records it was copied from, then drops oldSid's records (its
// block erases at the end of the collection pass). GC moves data without
// changing its logical write time — the copied page's OOB carries the
// source's timestamp, not the migration's. Minting fresh sequence numbers
// instead loses a host write that races the collection: Write appends the
// new slot (recording its OOB) and only then binds it, and a page program
// inside that append can trigger GC that migrates the lun's old slot — a
// fresh-seq copy of stale data would outrank the already-recorded new
// write on SPOR replay. newSid was just appended and then shared with
// shared further luns, so its alias records are the last shared records of
// its block's list.
func (r *recoveryLog) preserveCopy(oldSid, newSid int64, shared int) {
	old := r.slotAliases(oldSid)
	seqOf := func(lun int64) uint64 {
		var best uint64
		if rec := r.oob[oldSid]; rec.seq != 0 && rec.lun == lun {
			best = rec.seq
		}
		for _, a := range old {
			if a.lun == lun && a.seq > best {
				best = a.seq
			}
		}
		return best
	}
	if rec := r.oob[newSid]; rec.seq != 0 {
		if s := seqOf(rec.lun); s != 0 {
			r.oob[newSid] = oobRecord{lun: rec.lun, seq: s}
		}
	}
	list := r.aliases[r.block(newSid)]
	for i := len(list) - shared; i < len(list); i++ {
		if list[i].sid != newSid {
			panic(fmt.Sprintf("ftl: alias record %d of block %d belongs to slot %d, not the copy %d",
				i, r.block(newSid), list[i].sid, newSid))
		}
		if s := seqOf(list[i].lun); s != 0 {
			list[i].seq = s
		}
	}
	r.oob[oldSid] = oobRecord{}
	for i := range old {
		old[i].seq = 0
	}
}

// clearSlot drops one slot's records without assigning a new sequence
// number — used when a program failure relocates a buffered page and the
// ruined page's OOB must not be scanned as live (a retired block is listed
// in the bad-block table, which SPOR excludes).
func (r *recoveryLog) clearSlot(sid int64) {
	r.oob[sid] = oobRecord{}
	list := r.aliases[r.block(sid)]
	for i := range list {
		if list[i].sid == sid {
			list[i].seq = 0
		}
	}
}

// noteTransWrite records that physical page pid now holds the live
// translation page for tvpn (dftl mode only; tp is nil in dram mode).
func (r *recoveryLog) noteTransWrite(pid int64, tvpn int) {
	r.tp[pid] = int64(tvpn)
}

// clearTransPage drops a translation page's OOB record when it is
// invalidated (superseded by a rewrite, migrated by GC, or erased).
func (r *recoveryLog) clearTransPage(pid int64) {
	r.tp[pid] = -1
}

// SPORReport describes a simulated sudden-power-off recovery.
type SPORReport struct {
	ScannedPages  int
	BoundUnits    int64
	AliasBindings int64
	TrimsReplayed int
	Mismatches    int64
	// VolatileLost counts live mappings that pointed at slots still staged
	// in the volatile write buffer (not yet programmed) at the crash
	// instant. Those are legitimately lost on power failure — the host-side
	// journal replay re-creates them — so they are reported separately from
	// Mismatches, which flags only durable state the OOB scheme failed to
	// reconstruct.
	VolatileLost int64
	// TransPages counts live translation pages whose OOB records rebuilt the
	// global translation directory (dftl mode only; zero in dram mode).
	TransPages int64
	Duration   sim.VTime
}

// SimulateSPOR models a sudden power-off at the current instant followed by
// the device's own recovery: the mapping table is rebuilt purely from OOB
// scans and the persisted alias/trim records, then compared against the
// live table. A non-zero Mismatches count means the recovery protocol lost
// information — the invariant the paper's OOB scheme guarantees. The live
// FTL state is not modified.
//
// The scan cost is modeled as one fast OOB read per programmed page
// (oobReadTime each), serialized per die through the usual channels.
func (f *FTL) SimulateSPOR() *SPORReport {
	rep := f.VerifySPOR()

	// Cost model: OOB reads serialized on each die's channel path.
	const oobReadTime = 25 * sim.Microsecond
	start := f.eng.Now()
	var latest sim.VTime
	for b := 0; b < f.totalBlocks; b++ {
		programmed := f.array.ProgrammedPages(b)
		if programmed == 0 {
			continue
		}
		if end := f.array.ReserveDie(b, sim.VTime(programmed)*oobReadTime); end > latest {
			latest = end
		}
	}
	if latest > start {
		rep.Duration = latest - start
	}
	return rep
}

// VerifySPOR is the pure core of SimulateSPOR: it rebuilds the mapping
// table from OOB records and compares it against the live table, without
// charging any simulated time. Unlike SimulateSPOR it is safe to call from
// inside an engine event (the crash-injection harness does), because it
// never touches die reservations or other shared simulation state.
func (f *FTL) VerifySPOR() *SPORReport {
	rep := &SPORReport{}

	// 1. Rebuild candidate bindings: latest OOB record per logical unit.
	type binding struct {
		sid int64
		seq uint64
	}
	rebuilt := make(map[int64]binding)
	bind := func(lun, sid int64, seq uint64) {
		if b, ok := rebuilt[lun]; !ok || seq > b.seq {
			rebuilt[lun] = binding{sid: sid, seq: seq}
		}
	}
	slotsPerBlock := int64(f.pagesPerBlk) * int64(f.slotsPerPage)
	for b := 0; b < f.totalBlocks; b++ {
		programmed := f.array.ProgrammedPages(b)
		if programmed == 0 {
			continue
		}
		rep.ScannedPages += programmed
		base := f.slotID(b, 0, 0)
		for s := int64(0); s < slotsPerBlock; s++ {
			sid := base + s
			if f.slotPage(sid) >= programmed {
				break
			}
			if rec := f.rlog.oob[sid]; rec.seq != 0 {
				bind(rec.lun, sid, rec.seq)
			}
		}
		for _, rec := range f.rlog.aliases[b] {
			if rec.seq != 0 && f.slotPage(rec.sid) < programmed {
				bind(rec.lun, rec.sid, rec.seq)
				rep.AliasBindings++
			}
		}
	}

	// 2. Replay trim extents: a trim invalidates any binding older than it.
	for _, tr := range f.rlog.trims {
		rep.TrimsReplayed++
		for lun := tr.first; lun <= tr.last; lun++ {
			if b, ok := rebuilt[lun]; ok && b.seq < tr.seq {
				delete(rebuilt, lun)
			}
		}
	}

	// 3. Compare against the live table. A live mapping whose slot is still
	// staged in the volatile write buffer is expected to vanish on power
	// loss; count it as VolatileLost rather than a protocol failure.
	for lun, sid := range f.l2p {
		want := sid
		got := int64(-1)
		if b, ok := rebuilt[int64(lun)]; ok {
			got = b.sid
		}
		if want != got {
			if want >= 0 && f.isBuffered(want) {
				rep.VolatileLost++
			} else {
				rep.Mismatches++
			}
		}
	}
	for lun := range rebuilt {
		if f.l2p[lun] < 0 {
			rep.Mismatches++
		}
	}
	rep.BoundUnits = int64(len(rebuilt))

	// 4. dftl mode: rebuild the global translation directory from the
	// translation-page OOB records and compare it against the live GTD. Each
	// live translation page's OOB names the tvpn it holds; a crash must never
	// leave the scan unable to reproduce the directory exactly (translation
	// pages are written through the capacitor-backed metadata path, and the
	// invalidate-then-append discipline means at most one page claims a tvpn).
	if f.fm.enabled {
		gtd := make([]int64, f.fm.numTPs)
		for i := range gtd {
			gtd[i] = -1
		}
		for pid, tv := range f.rlog.tp {
			if tv < 0 {
				continue
			}
			rep.TransPages++
			if f.pidPage(int64(pid)) >= f.array.ProgrammedPages(f.pidBlock(int64(pid))) {
				rep.Mismatches++ // OOB claims a page that was never programmed
				continue
			}
			if gtd[tv] >= 0 {
				rep.Mismatches++ // two live pages claim the same tvpn
				continue
			}
			gtd[tv] = int64(pid)
		}
		for tv, pid := range gtd {
			if pid != f.fm.gtd[tv] {
				rep.Mismatches++
			}
		}
	}
	return rep
}

// String renders the report. The translation-page clause appears only in
// dftl mode so dram-mode output stays byte-identical.
func (r *SPORReport) String() string {
	s := fmt.Sprintf("SPOR: scanned %d pages, rebuilt %d units (%d aliases, %d trims) in %v, %d mismatches, %d volatile-lost",
		r.ScannedPages, r.BoundUnits, r.AliasBindings, r.TrimsReplayed, r.Duration, r.Mismatches, r.VolatileLost)
	if r.TransPages > 0 {
		s += fmt.Sprintf(", %d trans-pages", r.TransPages)
	}
	return s
}
