// Package exec implements the parallel transaction execution engines whose
// absence the paper names as its main limitation (§VII: "we have not
// designed and implemented an execution engine that can exploit the
// available concurrency"):
//
//   - Sequential: the baseline all public blockchains use today (§II-A).
//   - Speculative: the two-phase scheme of Saraph & Herlihy [17] that the
//     paper's equation (1) models — execute everything in parallel against
//     the pre-block state, then re-execute conflicted transactions
//     sequentially.
//   - Grouped: the TDG/group-concurrency engine the paper's equation (2)
//     models — connected components are scheduled onto workers (LPT) and
//     run in parallel, since components share no addresses.
//   - STMExec: an optimistic engine that commits transactions in block
//     order through per-key version validation, retrying aborted ones (the
//     design direction of Dickerson et al. [6] and of later systems such as
//     Block-STM).
//   - Sharded: state partitioned by a pluggable core.ShardMap (static
//     FNV-1a by default), each shard running its sub-block as optimistic
//     execution plus in-order validation with per-transaction repair, with — unlike the Zilliqa design of §II-B — a
//     deterministic two-phase cross-shard commit for the transactions that
//     span committees: commuting staged groups commit in batches, aborted
//     ones re-execute in parallel waves, and ordering overlaps are
//     repaired per transaction. Sharded.ExecuteChain composes it with
//     per-shard persistent mvstore instances so phase 1 of block b+1
//     overlaps the cross-shard commit of block b — on one shard, the
//     Octopus-style pipelined chain over the multi-version cache; with an adaptive map
//     (internal/heat.AdaptiveMap) it additionally learns per-address
//     conflict heat across blocks, rebalances hot conflict communities at
//     epoch boundaries with deterministic state migration between the
//     per-shard stores, and orders its merge waves by the same heat
//     signal.
//
// Every parallel engine additionally supports operation-level conflict
// refinement (the OpLevel/Refined fields): balance credits and debits are
// recorded as commutative deltas rather than read-modify-writes, so blind
// credits to a hot key (exchange deposits, flash-crowd payments) do not
// conflict with each other — only with reads and absolute writes. See
// docs/ARCHITECTURE.md, "Operation-level conflict refinement".
//
// Every engine proves serial equivalence: its final state root must equal
// the sequential root, and the tests enforce it.
package exec

import (
	"txconcur/internal/account"
	"txconcur/internal/types"
	"txconcur/internal/vm"
)

// keyKind distinguishes the classes of state a transaction can touch.
type keyKind uint8

// Key kinds. Values start at one so the zero StateKey is invalid.
const (
	kindBalance keyKind = iota + 1
	kindNonce
	kindCode
	kindStorage
)

// StateKey identifies one unit of state at conflict-detection granularity:
// an account's balance, nonce or code, or a single storage slot. This is
// the storage-layer granularity of [17], strictly finer than the paper's
// address-level TDG.
type StateKey struct {
	Kind keyKind
	Addr types.Address
	Slot uint64
}

// overlay is a read/write-recording state layered over an immutable base
// (a StateDB, or another overlay for chaining). Phase-1 speculative
// executions run on one overlay per transaction; the overlay records
// exactly which keys were touched.
//
// In operation-level mode (newOverlayOp) balance mutations are recorded as
// commutative *deltas* instead of read-modify-writes: AddBalance/SubBalance
// accumulate an increment without reading the base, so a blind credit to a
// hot account neither depends on nor invalidates concurrent credits — only
// an explicit GetBalance materialises the value and establishes a real
// dependency. In key-level mode (newOverlay) balances behave like every
// other key: an absolute write preceded by a read, the conflict granularity
// of [17].
//
// The base must not be mutated while overlays over it are live (concurrent
// map reads are only safe without writers).
type overlay struct {
	base account.State
	// op selects operation-level (delta) balance semantics.
	op bool

	balances map[types.Address]int64 // absolute balances (key-level mode)
	deltas   map[types.Address]int64 // balance increments (op-level mode)
	nonces   map[types.Address]uint64
	codes    map[types.Address][]byte
	storage  map[account.StorageKey]uint64

	reads  map[StateKey]struct{}
	writes map[StateKey]struct{}

	journal []func(*overlay)
}

var _ account.State = (*overlay)(nil)

func newOverlay(base account.State) *overlay {
	return &overlay{
		base:     base,
		balances: make(map[types.Address]int64),
		deltas:   make(map[types.Address]int64),
		nonces:   make(map[types.Address]uint64),
		codes:    make(map[types.Address][]byte),
		storage:  make(map[account.StorageKey]uint64),
		reads:    make(map[StateKey]struct{}),
		writes:   make(map[StateKey]struct{}),
	}
}

// newOverlayOp returns an overlay in operation-level (delta-write) mode
// when opLevel is true, key-level mode otherwise.
func newOverlayOp(base account.State, opLevel bool) *overlay {
	o := newOverlay(base)
	o.op = opLevel
	return o
}

func (o *overlay) read(k StateKey)  { o.reads[k] = struct{}{} }
func (o *overlay) write(k StateKey) { o.writes[k] = struct{}{} }

// GetBalance implements vm.State.
func (o *overlay) GetBalance(a types.Address) int64 {
	o.read(StateKey{Kind: kindBalance, Addr: a})
	if v, ok := o.balances[a]; ok {
		return v
	}
	return o.base.GetBalance(a) + o.deltas[a]
}

// AddBalance implements vm.State.
func (o *overlay) AddBalance(a types.Address, v int64) {
	if o.op {
		// Operation-level: record a blind commutative increment — no read
		// of the current value, no absolute write.
		prev, had := o.deltas[a]
		o.journal = append(o.journal, func(o *overlay) {
			if had {
				o.deltas[a] = prev
			} else {
				delete(o.deltas, a)
			}
		})
		o.deltas[a] = prev + v
		return
	}
	cur := o.GetBalance(a)
	k := StateKey{Kind: kindBalance, Addr: a}
	o.write(k)
	prev, had := o.balances[a]
	o.journal = append(o.journal, func(o *overlay) {
		if had {
			o.balances[a] = prev
		} else {
			delete(o.balances, a)
		}
	})
	o.balances[a] = cur + v
}

// SubBalance implements vm.State.
func (o *overlay) SubBalance(a types.Address, v int64) { o.AddBalance(a, -v) }

// GetNonce implements account.State.
func (o *overlay) GetNonce(a types.Address) uint64 {
	o.read(StateKey{Kind: kindNonce, Addr: a})
	if v, ok := o.nonces[a]; ok {
		return v
	}
	return o.base.GetNonce(a)
}

// SetNonce implements account.State.
func (o *overlay) SetNonce(a types.Address, n uint64) {
	o.write(StateKey{Kind: kindNonce, Addr: a})
	prev, had := o.nonces[a]
	o.journal = append(o.journal, func(o *overlay) {
		if had {
			o.nonces[a] = prev
		} else {
			delete(o.nonces, a)
		}
	})
	o.nonces[a] = n
}

// GetCode implements vm.State.
func (o *overlay) GetCode(a types.Address) []byte {
	o.read(StateKey{Kind: kindCode, Addr: a})
	if c, ok := o.codes[a]; ok {
		return c
	}
	return o.base.GetCode(a)
}

// SetCode implements account.State.
func (o *overlay) SetCode(a types.Address, code []byte) {
	o.write(StateKey{Kind: kindCode, Addr: a})
	prev, had := o.codes[a]
	o.journal = append(o.journal, func(o *overlay) {
		if had {
			o.codes[a] = prev
		} else {
			delete(o.codes, a)
		}
	})
	c := make([]byte, len(code))
	copy(c, code)
	o.codes[a] = c
}

// GetStorage implements vm.State.
func (o *overlay) GetStorage(a types.Address, slot uint64) uint64 {
	o.read(StateKey{Kind: kindStorage, Addr: a, Slot: slot})
	if v, ok := o.storage[account.StorageKey{Addr: a, Slot: slot}]; ok {
		return v
	}
	return o.base.GetStorage(a, slot)
}

// SetStorage implements vm.State.
func (o *overlay) SetStorage(a types.Address, slot, value uint64) {
	o.write(StateKey{Kind: kindStorage, Addr: a, Slot: slot})
	sk := account.StorageKey{Addr: a, Slot: slot}
	prev, had := o.storage[sk]
	o.journal = append(o.journal, func(o *overlay) {
		if had {
			o.storage[sk] = prev
		} else {
			delete(o.storage, sk)
		}
	})
	o.storage[sk] = value
}

// Snapshot implements vm.State.
func (o *overlay) Snapshot() int { return len(o.journal) }

// RevertToSnapshot implements vm.State. Reverts values only; read/write
// sets keep reverted keys, which is conservative (may flag extra conflicts,
// never misses one).
func (o *overlay) RevertToSnapshot(snap int) {
	for i := len(o.journal) - 1; i >= snap; i-- {
		o.journal[i](o)
	}
	o.journal = o.journal[:snap]
}

// applyTo writes the overlay's accumulated values into dst. Callers
// guarantee disjointness (or intended ordering) between overlays; delta
// entries commute, so their application order never matters.
func (o *overlay) applyTo(dst account.State) {
	//txlint:ordered each iteration overwrites only dst's entry for address a; distinct addresses, distinct entries
	for a, v := range o.balances {
		dst.AddBalance(a, v-dst.GetBalance(a))
	}
	//txlint:ordered per-address balance deltas are additive and commute
	for a, d := range o.deltas {
		dst.AddBalance(a, d)
	}
	//txlint:ordered distinct addresses, distinct nonce entries
	for a, n := range o.nonces {
		dst.SetNonce(a, n)
	}
	//txlint:ordered distinct addresses, distinct code entries
	for a, c := range o.codes {
		dst.SetCode(a, c)
	}
	//txlint:ordered distinct storage keys, distinct entries
	for sk, v := range o.storage {
		dst.SetStorage(sk.Addr, sk.Slot, v)
	}
}

// deltaKey builds the state key of a balance delta entry.
func deltaKey(a types.Address) StateKey { return StateKey{Kind: kindBalance, Addr: a} }

// reader returns a read-only, non-recording view of the overlay, safe for
// *concurrent* readers as long as nothing mutates the overlay (or any state
// below it) while readers are live — Go map reads without writers are safe.
// The cross-shard merge's parallel re-execution waves read the committed
// prefix through readers: a plain overlay would record every read into its
// shared read-set maps, racing with its siblings. The base chain must itself
// be safe for concurrent reads (StateDB, snapState, mergedState, or another
// reader — not a bare overlay, whose getters record).
func (o *overlay) reader() account.State { return &overlayReader{o: o} }

// overlayReader is the non-recording view behind overlay.reader.
type overlayReader struct{ o *overlay }

var _ account.State = (*overlayReader)(nil)

func (r *overlayReader) GetBalance(a types.Address) int64 {
	if v, ok := r.o.balances[a]; ok {
		return v
	}
	return r.o.base.GetBalance(a) + r.o.deltas[a]
}

func (r *overlayReader) GetNonce(a types.Address) uint64 {
	if v, ok := r.o.nonces[a]; ok {
		return v
	}
	return r.o.base.GetNonce(a)
}

func (r *overlayReader) GetCode(a types.Address) []byte {
	if c, ok := r.o.codes[a]; ok {
		return c
	}
	return r.o.base.GetCode(a)
}

func (r *overlayReader) GetStorage(a types.Address, slot uint64) uint64 {
	if v, ok := r.o.storage[account.StorageKey{Addr: a, Slot: slot}]; ok {
		return v
	}
	return r.o.base.GetStorage(a, slot)
}

func (r *overlayReader) Snapshot() int                   { return 0 }
func (r *overlayReader) RevertToSnapshot(int)            {}
func (r *overlayReader) AddBalance(types.Address, int64) { panic("exec: write to overlay reader") }
func (r *overlayReader) SubBalance(types.Address, int64) { panic("exec: write to overlay reader") }
func (r *overlayReader) SetNonce(types.Address, uint64)  { panic("exec: write to overlay reader") }
func (r *overlayReader) SetCode(types.Address, []byte)   { panic("exec: write to overlay reader") }
func (r *overlayReader) SetStorage(types.Address, uint64, uint64) {
	panic("exec: write to overlay reader")
}

// accessCounts aggregates, per state key, how many phase-1 transactions
// read, wrote, and delta-wrote it.
type accessCounts struct {
	writers map[StateKey]int
	readers map[StateKey]int
	deltas  map[StateKey]int
}

func countAccesses(overlays []*overlay) accessCounts {
	ac := accessCounts{
		writers: make(map[StateKey]int),
		readers: make(map[StateKey]int),
		deltas:  make(map[StateKey]int),
	}
	for _, o := range overlays {
		if o == nil {
			continue
		}
		for k := range o.writes {
			ac.writers[k]++
		}
		for k := range o.reads {
			ac.readers[k]++
		}
		for a := range o.deltas {
			ac.deltas[deltaKey(a)]++
		}
	}
	return ac
}

// conflicted reports whether this overlay's transaction conflicts with any
// other transaction, symmetrically (as in [17], where *all* transactions
// involved in a collision go to the sequential bin): another writer of a
// key we wrote, another reader of a key we wrote, or any writer of a key we
// read. Delta writes are the exception that operation-level concurrency
// exploits: two delta writes to the same key commute and do not conflict;
// a delta write conflicts only with another transaction's read or absolute
// write of that key.
func (o *overlay) conflicted(ac accessCounts) bool {
	for k := range o.writes {
		if ac.writers[k] >= 2 {
			return true
		}
		selfReads := 0
		if _, ours := o.reads[k]; ours {
			selfReads = 1
		}
		if ac.readers[k] > selfReads {
			return true
		}
		// An absolute write vs anyone's delta: the delta's base moved.
		// (A single overlay never both writes and delta-writes one key, so
		// any delta counted here is another transaction's.)
		if ac.deltas[k] >= 1 {
			return true
		}
	}
	for a := range o.deltas {
		k := deltaKey(a)
		if ac.writers[k] >= 1 {
			return true
		}
		selfReads := 0
		if _, ours := o.reads[k]; ours {
			selfReads = 1
		}
		if ac.readers[k] > selfReads {
			return true
		}
	}
	for k := range o.reads {
		if _, ours := o.writes[k]; ours {
			continue // covered by the writer rules above
		}
		if ac.writers[k] >= 1 {
			return true
		}
		selfDeltas := 0
		if k.Kind == kindBalance {
			if _, ours := o.deltas[k.Addr]; ours {
				selfDeltas = 1
			}
		}
		if ac.deltas[k] > selfDeltas {
			return true
		}
	}
	return false
}

// interface check: overlays satisfy the VM contract too.
var _ vm.State = (*overlay)(nil)
