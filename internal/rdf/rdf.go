// Package rdf implements a distributed RDF store and a SPARQL basic-
// graph-pattern engine over Trinity's memory cloud, reproducing the setup
// behind Figure 14(b) (the Trinity-based RDF engine of Zeng et al.,
// VLDB'13, evaluated on LUBM data).
//
// Triples (s, p, o) are stored natively as graph adjacency: the subject
// cell's Outlinks hold the objects and the parallel Weights list holds
// predicate IDs; every triple is also stored reversed (predicate tagged
// with a direction bit) so bound-object patterns explore backwards.
// Entity type is interned into the node label for index-free type scans.
// Queries are answered by distributed graph exploration, not joins over
// triple tables — the paper's core argument applied to RDF.
package rdf

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"trinity/internal/graph"
	"trinity/internal/hash"
	"trinity/internal/memcloud"
)

// Predicate is an interned predicate identifier.
type Predicate int64

// reverseBit tags reversed triple edges.
const reverseBit = int64(1) << 40

// Store is a distributed triple store over a memory cloud.
type Store struct {
	g *graph.Graph

	preds   map[string]Predicate
	predIDs []string
	types   map[string]int64
	typeIDs []string
}

// NewStore creates an empty store over the cloud.
func NewStore(cloud *memcloud.Cloud) *Store {
	return &Store{
		g:     graph.New(cloud, true),
		preds: map[string]Predicate{},
		types: map[string]int64{},
	}
}

// InternPredicate returns the stable id of a predicate IRI.
func (s *Store) InternPredicate(iri string) Predicate {
	if id, ok := s.preds[iri]; ok {
		return id
	}
	id := Predicate(len(s.predIDs) + 1)
	s.preds[iri] = id
	s.predIDs = append(s.predIDs, iri)
	return id
}

// InternType returns the stable label of an entity type IRI.
func (s *Store) InternType(iri string) int64 {
	if id, ok := s.types[iri]; ok {
		return id
	}
	id := int64(len(s.typeIDs) + 1)
	s.types[iri] = id
	s.typeIDs = append(s.typeIDs, iri)
	return id
}

// EntityID derives the cell id of an entity IRI.
func EntityID(iri string) uint64 { return hash.String(iri) }

// Builder accumulates triples and bulk-loads them.
type Builder struct {
	s *Store
	b *graph.Builder
}

// NewBuilder starts a bulk load into the store.
func (s *Store) NewBuilder() *Builder {
	return &Builder{s: s, b: graph.NewBuilder(true)}
}

// AddEntity declares an entity with its rdf:type.
func (b *Builder) AddEntity(iri, typeIRI string) uint64 {
	id := EntityID(iri)
	b.b.AddNode(id, b.s.InternType(typeIRI), iri)
	return id
}

// AddTriple records (subject, predicate, object); both entities must have
// been declared with AddEntity.
func (b *Builder) AddTriple(subjIRI, predIRI, objIRI string) {
	p := int64(b.s.InternPredicate(predIRI))
	s := EntityID(subjIRI)
	o := EntityID(objIRI)
	b.b.AddWeightedEdge(s, o, p)
	b.b.AddWeightedEdge(o, s, p|reverseBit)
}

// Flush loads the accumulated triples into the memory cloud.
func (b *Builder) Flush(ctx context.Context) error {
	return b.b.Flush(ctx, b.s.g)
}

// --- SPARQL basic graph patterns ---

// Term is a pattern term: either a variable ("?x") or an entity IRI.
type Term struct {
	Var string // non-empty for variables
	IRI string // non-empty for constants
}

// V makes a variable term.
func V(name string) Term { return Term{Var: name} }

// I makes a constant (IRI) term.
func I(iri string) Term { return Term{IRI: iri} }

// TriplePattern is one BGP pattern: subject / predicate IRI / object.
// Predicates must be constant (as in all LUBM benchmark queries).
type TriplePattern struct {
	S    Term
	Pred string
	O    Term
}

// Query is a basic graph pattern plus an optional type constraint per
// variable (the `?x rdf:type T` patterns of LUBM, handled natively via
// node labels).
type Query struct {
	Patterns []TriplePattern
	// Types constrains variables to an entity type IRI.
	Types map[string]string
	// Select lists the output variables, in order.
	Select []string
}

// Binding maps variable names to entity cell ids.
type Binding map[string]uint64

// Execute answers the query by distributed exploration: bindings are
// seeded from the most selective pattern and extended pattern by pattern
// along graph adjacency.
func (s *Store) Execute(ctx context.Context, q *Query) ([]Binding, error) {
	if len(q.Patterns) == 0 {
		return nil, errors.New("rdf: empty query")
	}
	patterns := append([]TriplePattern(nil), q.Patterns...)
	// Order patterns so each one shares a variable with the already-bound
	// set when possible, starting from the one with a constant term.
	sort.SliceStable(patterns, func(i, j int) bool {
		return patternSelectivity(patterns[i]) < patternSelectivity(patterns[j])
	})
	ordered := planPatterns(patterns)

	bindings := []Binding{{}}
	for _, p := range ordered {
		var err error
		bindings, err = s.extend(ctx, bindings, p, q.Types)
		if err != nil {
			return nil, err
		}
		if len(bindings) == 0 {
			return nil, nil
		}
	}
	return bindings, nil
}

// patternSelectivity orders seed patterns: constant subject or object
// first.
func patternSelectivity(p TriplePattern) int {
	score := 2
	if p.S.IRI != "" {
		score--
	}
	if p.O.IRI != "" {
		score--
	}
	return score
}

// planPatterns greedily orders patterns to keep the join connected.
func planPatterns(ps []TriplePattern) []TriplePattern {
	if len(ps) <= 1 {
		return ps
	}
	bound := map[string]bool{}
	markBound := func(p TriplePattern) {
		if p.S.Var != "" {
			bound[p.S.Var] = true
		}
		if p.O.Var != "" {
			bound[p.O.Var] = true
		}
	}
	out := []TriplePattern{ps[0]}
	markBound(ps[0])
	rest := append([]TriplePattern(nil), ps[1:]...)
	for len(rest) > 0 {
		picked := -1
		for i, p := range rest {
			if (p.S.Var != "" && bound[p.S.Var]) || (p.O.Var != "" && bound[p.O.Var]) ||
				p.S.IRI != "" || p.O.IRI != "" {
				picked = i
				break
			}
		}
		if picked < 0 {
			picked = 0 // disconnected pattern: cartesian step
		}
		out = append(out, rest[picked])
		markBound(rest[picked])
		rest = append(rest[:picked], rest[picked+1:]...)
	}
	return out
}

// extend joins one pattern into the binding set.
func (s *Store) extend(ctx context.Context, bindings []Binding, p TriplePattern, types map[string]string) ([]Binding, error) {
	pred, ok := s.preds[p.Pred]
	if !ok {
		return nil, nil // unknown predicate: no matches
	}
	var out []Binding
	for _, b := range bindings {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sBound, sID := resolveTerm(p.S, b)
		oBound, oID := resolveTerm(p.O, b)
		switch {
		case sBound:
			// Forward exploration from the subject.
			err := s.forEachEdge(ctx, sID, int64(pred), func(obj uint64) error {
				if oBound {
					if obj == oID {
						out = append(out, b)
					}
					return nil
				}
				if !s.typeOK(ctx, obj, p.O.Var, types) {
					return nil
				}
				nb := cloneBinding(b)
				nb[p.O.Var] = obj
				out = append(out, nb)
				return nil
			})
			if err != nil {
				return nil, err
			}
		case oBound:
			// Backward exploration from the object.
			err := s.forEachEdge(ctx, oID, int64(pred)|reverseBit, func(subj uint64) error {
				if !s.typeOK(ctx, subj, p.S.Var, types) {
					return nil
				}
				nb := cloneBinding(b)
				nb[p.S.Var] = subj
				out = append(out, nb)
				return nil
			})
			if err != nil {
				return nil, err
			}
		default:
			// Neither side bound: scan by the subject variable's type.
			typeIRI, ok := types[p.S.Var]
			if !ok {
				return nil, fmt.Errorf("rdf: pattern (?%s %s ?%s) needs a type constraint on ?%s",
					p.S.Var, p.Pred, p.O.Var, p.S.Var)
			}
			label := s.types[typeIRI]
			subjects := s.scanByLabel(label)
			for _, subj := range subjects {
				err := s.forEachEdge(ctx, subj, int64(pred), func(obj uint64) error {
					if !s.typeOK(ctx, obj, p.O.Var, types) {
						return nil
					}
					nb := cloneBinding(b)
					nb[p.S.Var] = subj
					nb[p.O.Var] = obj
					out = append(out, nb)
					return nil
				})
				if err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

func resolveTerm(t Term, b Binding) (bool, uint64) {
	if t.IRI != "" {
		return true, EntityID(t.IRI)
	}
	if id, ok := b[t.Var]; ok {
		return true, id
	}
	return false, 0
}

func cloneBinding(b Binding) Binding {
	nb := make(Binding, len(b)+1)
	for k, v := range b {
		nb[k] = v
	}
	return nb
}

// typeOK checks a candidate against the variable's type constraint.
func (s *Store) typeOK(ctx context.Context, id uint64, varName string, types map[string]string) bool {
	if varName == "" {
		return true
	}
	typeIRI, ok := types[varName]
	if !ok {
		return true
	}
	want := s.types[typeIRI]
	got, err := s.g.On(0).Label(ctx, id)
	return err == nil && got == want
}

// forEachEdge streams edges of one node with the given predicate tag,
// fetching the node wherever it lives.
func (s *Store) forEachEdge(ctx context.Context, id uint64, tag int64, fn func(other uint64) error) error {
	m := s.g.On(0)
	if m.Slave().Owner(id) == m.Slave().ID() {
		var ferr error
		err := m.ForEachOutEdge(id, func(dst uint64, w int64) bool {
			if w == tag {
				if e := fn(dst); e != nil {
					ferr = e
					return false
				}
			}
			return true
		})
		if err != nil && !errors.Is(err, memcloud.ErrNotFound) {
			return err
		}
		return ferr
	}
	n, err := m.GetNode(ctx, id)
	if err != nil {
		if errors.Is(err, graph.ErrNoNode) {
			return nil
		}
		return err
	}
	for i, dst := range n.Outlinks {
		if i < len(n.Weights) && n.Weights[i] == tag {
			if e := fn(dst); e != nil {
				return e
			}
		}
	}
	return nil
}

// scanByLabel collects all entities with the type label (parallel scan,
// no index).
func (s *Store) scanByLabel(label int64) []uint64 {
	var out []uint64
	for i := 0; i < s.g.Machines(); i++ {
		s.g.On(i).ForEachLocalNode(func(id uint64, blob []byte) bool {
			n, err := graph.DecodeNode(id, blob)
			if err == nil && n.Label == label {
				out = append(out, id)
			}
			return true
		})
	}
	return out
}
