package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/fsm"
)

// TypeID stably identifies a typed range index. IDs are persisted in
// snapshot sections, so a registered type must keep its ID forever;
// reusing a retired ID for a different type corrupts old snapshots.
type TypeID uint16

// Built-in type IDs. New built-ins continue the sequence; external
// registrations should start well above (say 1000) to avoid collisions.
const (
	TypeDouble   TypeID = 1
	TypeDateTime TypeID = 2
	TypeDate     TypeID = 3
)

// TypeSpec describes one pluggable typed index: everything the generic
// build/update/lookup/persist/verify machinery needs to maintain a range
// index for an ordered XML type. The paper's Section 4 machinery (FSM +
// monoid + SCT + fragment descriptors) is shared; a spec contributes only
// the type-specific pieces.
type TypeSpec struct {
	// ID is the stable identifier used in snapshots and lookups.
	ID TypeID
	// Name labels the type in diagnostics and stats ("double", "date", …).
	Name string
	// Machine recognises fragments of the type's lexical space.
	Machine *fsm.Machine
	// Encode turns a castable fragment into an order-preserving 64-bit
	// B+tree key. ok=false when the fragment, though syntactically
	// complete, has no value (e.g. a semantically impossible date).
	Encode func(fsm.Frag) (uint64, bool)
}

func (s TypeSpec) validate() error {
	if s.ID == 0 {
		return fmt.Errorf("core: TypeSpec %q has reserved ID 0", s.Name)
	}
	if s.Name == "" {
		return fmt.Errorf("core: TypeSpec %d has no name", s.ID)
	}
	if s.Machine == nil {
		return fmt.Errorf("core: TypeSpec %q has no machine", s.Name)
	}
	if s.Encode == nil {
		return fmt.Errorf("core: TypeSpec %q has no encoder", s.Name)
	}
	return nil
}

// regTable is one immutable version of the typed-index registry: a
// published table is never mutated, so readers resolve specs with a
// single atomic pointer load and no lock — the same copy-on-write
// publication protocol the index snapshots use. Registration order is
// part of the table (it fixes iteration order everywhere: build loops,
// snapshots, stats).
type regTable struct {
	specs map[TypeID]TypeSpec
	order []TypeID
}

var (
	// regMu serialises writers (RegisterType); readers never take it.
	regMu sync.Mutex
	// typeRegistry points at the current immutable table. Initialised
	// here, before the package init() below registers the built-ins.
	typeRegistry = func() *atomic.Pointer[regTable] {
		p := new(atomic.Pointer[regTable])
		p.Store(&regTable{specs: make(map[TypeID]TypeSpec)})
		return p
	}()
)

// RegisterType adds a typed index to the registry. It is the single
// extension point for new ordered XML types: define a base DFA (see
// fsm.Date for the model), an Encode into an order-preserving uint64, and
// register — build, update, lookup, persist, verify, and stats pick the
// type up with no further control flow. Registering a duplicate ID or
// name, or an incomplete spec, panics: registration happens at init time
// and a bad spec is a programming error. Each registration publishes a
// fresh table copy, so concurrent lookups (index builds, snapshot loads)
// are never blocked, not even during registration.
func RegisterType(spec TypeSpec) {
	if err := spec.validate(); err != nil {
		panic(err.Error())
	}
	regMu.Lock()
	defer regMu.Unlock()
	cur := typeRegistry.Load()
	if _, dup := cur.specs[spec.ID]; dup {
		panic(fmt.Sprintf("core: typed index ID %d registered twice", spec.ID))
	}
	for _, id := range cur.order {
		if cur.specs[id].Name == spec.Name {
			panic(fmt.Sprintf("core: typed index name %q registered twice", spec.Name))
		}
	}
	next := &regTable{
		specs: make(map[TypeID]TypeSpec, len(cur.specs)+1),
		order: make([]TypeID, len(cur.order), len(cur.order)+1),
	}
	for id, s := range cur.specs {
		next.specs[id] = s
	}
	copy(next.order, cur.order)
	next.specs[spec.ID] = spec
	next.order = append(next.order, spec.ID)
	typeRegistry.Store(next)
}

// LookupType returns the spec registered under id. Lock-free.
func LookupType(id TypeID) (TypeSpec, bool) {
	t := typeRegistry.Load()
	spec, ok := t.specs[id]
	return spec, ok
}

// TypeByName returns the spec registered under name. Lock-free.
func TypeByName(name string) (TypeSpec, bool) {
	t := typeRegistry.Load()
	for _, id := range t.order {
		if t.specs[id].Name == name {
			return t.specs[id], true
		}
	}
	return TypeSpec{}, false
}

// RegisteredTypes lists all registered type IDs in registration order.
// The table is immutable, so the returned slice is a copy only to keep
// callers from appending into a published version.
func RegisteredTypes() []TypeID {
	t := typeRegistry.Load()
	out := make([]TypeID, len(t.order))
	copy(out, t.order)
	return out
}

// DefaultOptions builds the string index and every built-in typed index.
// It names the built-ins rather than calling RegisteredTypes, so a type
// registered later in the process does not change what it builds.
func DefaultOptions() Options {
	return Options{String: true, Types: []TypeID{TypeDouble, TypeDateTime, TypeDate}}
}

// orderTypeIDs sorts ids into registry registration order and drops
// duplicates and unknown IDs.
func orderTypeIDs(ids []TypeID) []TypeID {
	want := make(map[TypeID]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	all := RegisteredTypes()
	out := make([]TypeID, 0, len(want))
	for _, id := range all {
		if want[id] {
			out = append(out, id)
		}
	}
	return out
}

// --- built-in types ---

func encodeDouble(f fsm.Frag) (uint64, bool) {
	v, ok := fsm.DoubleValue(f)
	if !ok {
		return 0, false
	}
	return btree.EncodeFloat64(v), true
}

func encodeDateTime(f fsm.Frag) (uint64, bool) {
	v, ok := fsm.DateTimeValue(f)
	if !ok {
		return 0, false
	}
	return btree.EncodeInt64(v), true
}

func encodeDate(f fsm.Frag) (uint64, bool) {
	v, ok := fsm.DateValue(f)
	if !ok {
		return 0, false
	}
	return btree.EncodeInt64(v), true
}

func init() {
	RegisterType(TypeSpec{
		ID:      TypeDouble,
		Name:    "double",
		Machine: fsm.Double(),
		Encode:  encodeDouble,
	})
	RegisterType(TypeSpec{
		ID:      TypeDateTime,
		Name:    "dateTime",
		Machine: fsm.DateTime(),
		Encode:  encodeDateTime,
	})
	// The xs:date index is added purely by registration: no build, update,
	// lookup, persist, verify, or stats code knows about it — the proof of
	// Section 4's genericity claim.
	RegisterType(TypeSpec{
		ID:      TypeDate,
		Name:    "date",
		Machine: fsm.Date(),
		Encode:  encodeDate,
	})
}
