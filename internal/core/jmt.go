package core

// LogType classifies a journal log's stored format (Algorithm 2).
type LogType uint8

// Log format types.
const (
	// LogFull occupies whole mapping units and can be checkpointed by a
	// pure remap.
	LogFull LogType = iota
	// LogPartial is smaller than a mapping unit after size-class padding;
	// it is packed with other partial logs into a shared unit.
	LogPartial
	// LogMerged is a partial log that has been packed into a shared unit.
	LogMerged
)

// String names the log type.
func (t LogType) String() string {
	switch t {
	case LogFull:
		return "FULL"
	case LogPartial:
		return "PARTIAL"
	case LogMerged:
		return "MERGED"
	default:
		return "?"
	}
}

// jmtEntry is one record of the journal mapping table: the mapping between
// a target (data-area) location and the journal location of its newest
// uncheckpointed version. Entries are append-only (write-ahead-log method);
// a newer update for the same key flips the previous entry's Old flag
// rather than modifying it (Figure 2(b), Algorithm 1's NEW/OLD flags).
type jmtEntry struct {
	key     int64
	version int64

	// journal placement, assigned when the log is laid out at commit
	off     int64 // absolute journal offset of the stored payload
	stored  int   // bytes occupied in the journal (after padding/merging)
	payload int   // raw value bytes
	typ     LogType

	// target placement in the data area
	targetOff int64
	targetLen int

	old       bool // superseded by a newer entry for the same key
	committed bool // the log has been durably written
}

// jmtChunk is the number of entries carved from one arena allocation.
const jmtChunk = 512

// JMT is the journal mapping table for one journal half: an append-only
// entry log plus a latest-version index.
type JMT struct {
	entries []*jmtEntry
	// latest holds, per key, 1 + the index in entries of the key's newest
	// entry, or 0 when the key has none. Keys are dense record numbers, so
	// a slice sized to the key space replaces a hash map.
	latest []int32
	live   int // entries with old == false
	// arena is the chunk new entries are carved from: Add allocates once
	// per jmtChunk entries instead of once per entry. A retired table's
	// chunks go to the garbage collector with it.
	arena []jmtEntry
}

// NewJMT returns an empty table for keys [0, keys).
func NewJMT(keys int64) *JMT {
	return &JMT{latest: make([]int32, keys)}
}

// Add appends a copy of e, marking any previous entry for the same key
// OLD, and returns the table's entry.
func (t *JMT) Add(e jmtEntry) *jmtEntry {
	if len(t.arena) == cap(t.arena) {
		t.arena = make([]jmtEntry, 0, jmtChunk)
	}
	t.arena = append(t.arena, e)
	ne := &t.arena[len(t.arena)-1]
	if i := t.latest[e.key]; i != 0 {
		t.entries[i-1].old = true
		t.live--
	}
	t.entries = append(t.entries, ne)
	t.latest[e.key] = int32(len(t.entries))
	t.live++
	return ne
}

// clone returns a deep copy of the table. The latest index holds positions,
// not pointers, so it copies as is.
func (t *JMT) clone() *JMT {
	out := &JMT{
		entries: make([]*jmtEntry, len(t.entries)),
		latest:  append([]int32(nil), t.latest...),
		live:    t.live,
	}
	copies := make([]jmtEntry, len(t.entries))
	for i, e := range t.entries {
		copies[i] = *e
		out.entries[i] = &copies[i]
	}
	return out
}

// Latest returns the newest entry for key, or nil.
func (t *JMT) Latest(key int64) *jmtEntry {
	if i := t.latest[key]; i != 0 {
		return t.entries[i-1]
	}
	return nil
}

// Entries returns the full append log (including OLD entries).
func (t *JMT) Entries() []*jmtEntry { return t.entries }

// Len returns the total number of entries (including OLD).
func (t *JMT) Len() int { return len(t.entries) }

// Live returns the number of latest-version entries.
func (t *JMT) Live() int { return t.live }

// LiveRatio returns live/total — the fraction the paper relates to the
// uniform-vs-Zipfian checkpointing cost difference.
func (t *JMT) LiveRatio() float64 {
	if len(t.entries) == 0 {
		return 0
	}
	return float64(t.live) / float64(len(t.entries))
}
