package sparql

import (
	"lodify/internal/rdf"
	"lodify/internal/store"
)

// SPARQL 1.1 property paths: iri, ^inverse, seq/seq, alt|alt, elt*,
// elt+, elt? and (grouping). Paths appear in the predicate position
// of triple patterns; TriplePattern carries an optional Path.

// PathKind discriminates path operators.
type PathKind int

const (
	// PathIRI is a plain predicate IRI.
	PathIRI PathKind = iota
	// PathInverse is ^p.
	PathInverse
	// PathSeq is p1/p2.
	PathSeq
	// PathAlt is p1|p2.
	PathAlt
	// PathZeroOrMore is p*.
	PathZeroOrMore
	// PathOneOrMore is p+.
	PathOneOrMore
	// PathZeroOrOne is p?.
	PathZeroOrOne
)

// PathExpr is a property-path tree.
type PathExpr struct {
	Kind  PathKind
	IRI   rdf.Term  // PathIRI
	Left  *PathExpr // unary operand / sequence head / alt left
	Right *PathExpr // sequence tail / alt right
}

// isSimpleIRI reports whether the path is a bare predicate.
func (p *PathExpr) isSimpleIRI() bool { return p != nil && p.Kind == PathIRI }

// ---- parsing (predicate position) ----

// path parses PathAlternative: sequence ('|' sequence)*.
func (p *parser) path() (*PathExpr, error) {
	left, err := p.pathSequence()
	if err != nil {
		return nil, err
	}
	for p.accept(tokPunct, "|") {
		right, err := p.pathSequence()
		if err != nil {
			return nil, err
		}
		left = &PathExpr{Kind: PathAlt, Left: left, Right: right}
	}
	return left, nil
}

// pathSequence parses PathSequence: elt ('/' elt)*.
func (p *parser) pathSequence() (*PathExpr, error) {
	left, err := p.pathElt()
	if err != nil {
		return nil, err
	}
	for p.accept(tokPunct, "/") {
		right, err := p.pathElt()
		if err != nil {
			return nil, err
		}
		left = &PathExpr{Kind: PathSeq, Left: left, Right: right}
	}
	return left, nil
}

// pathElt parses PathElt: primary with optional modifier.
func (p *parser) pathElt() (*PathExpr, error) {
	prim, err := p.pathPrimary()
	if err != nil {
		return nil, err
	}
	switch {
	case p.accept(tokPunct, "*"):
		return &PathExpr{Kind: PathZeroOrMore, Left: prim}, nil
	case p.accept(tokPunct, "+"):
		return &PathExpr{Kind: PathOneOrMore, Left: prim}, nil
	case p.accept(tokPunct, "?"):
		return &PathExpr{Kind: PathZeroOrOne, Left: prim}, nil
	default:
		return prim, nil
	}
}

// pathPrimary parses iri | 'a' | '^' elt | '(' path ')'.
func (p *parser) pathPrimary() (*PathExpr, error) {
	switch {
	case p.accept(tokPunct, "^"):
		inner, err := p.pathElt()
		if err != nil {
			return nil, err
		}
		return &PathExpr{Kind: PathInverse, Left: inner}, nil
	case p.accept(tokPunct, "("):
		inner, err := p.path()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		return inner, nil
	case p.at(tokA, ""):
		p.next()
		return &PathExpr{Kind: PathIRI, IRI: rdf.NewIRI(rdf.RDFType)}, nil
	case p.at(tokIRI, "") || p.at(tokPrefixed, ""):
		t, err := p.iriTerm()
		if err != nil {
			return nil, err
		}
		return &PathExpr{Kind: PathIRI, IRI: t}, nil
	default:
		return nil, p.errHere("expected property path element, got %s", p.cur())
	}
}

// ---- evaluation ----

// pair is an (s, o) match of a path, in id space.
type pair [2]store.TermID

// pairList accumulates pairs in first-seen order, dropping repeats.
type pairList struct {
	seen map[pair]bool
	out  []pair
}

func (l *pairList) add(prs ...pair) {
	if l.seen == nil {
		l.seen = map[pair]bool{}
	}
	for _, pr := range prs {
		if !l.seen[pr] {
			l.seen[pr] = true
			l.out = append(l.out, pr)
		}
	}
}

// pathEval evaluates one path pattern for all of its input rows under
// a single read lease, so every hop of every closure sees the same
// committed state.
type pathEval struct {
	lease *store.Lease
	// gid is the GRAPH restriction; graphOK=false means it names a graph
	// the store does not have, where only zero-length matches exist.
	gid     store.TermID
	graphOK bool
	// preds resolves each PathIRI node's predicate; 0 = not in the store.
	preds map[*PathExpr]store.TermID
}

// evalPathPattern extends each solution row by matching (s path o).
// Endpoint constants and predicates resolve to ids before the lease is
// taken; a term the dictionary has never seen gets a query-local id,
// which still yields its zero-length match.
func (ex *executor) evalPathPattern(tp TriplePattern, input []row) []row {
	end := func(pt PatternTerm) cpTerm {
		if pt.IsVar() {
			return cpTerm{slot: ex.fr.slots[pt.Var]}
		}
		return cpTerm{slot: -1, id: ex.dict.idOf(pt.Term)}
	}
	sEnd, oEnd := end(tp.S), end(tp.O)
	pe := &pathEval{preds: map[*PathExpr]store.TermID{}}
	pe.gid, pe.graphOK = ex.graphID()
	ex.resolvePathPreds(tp.Path, pe.preds)

	lease := ex.st.ReadLease()
	defer lease.Release()
	ex.prof.addLease(lease.Wait())
	pe.lease = lease
	var out []row
	for _, r := range input {
		for _, pr := range pe.eval(tp.Path, sEnd.resolve(r), oEnd.resolve(r)) {
			ext := r.clone()
			if bindEnd(ext, sEnd, pr[0]) && bindEnd(ext, oEnd, pr[1]) {
				out = append(out, ext)
			}
		}
	}
	return out
}

// bindEnd binds one path endpoint into an extended row: a repeated
// variable must match its earlier binding.
func bindEnd(r row, ct cpTerm, val store.TermID) bool {
	if ct.slot < 0 {
		return true
	}
	if r[ct.slot] != 0 {
		return r[ct.slot] == val
	}
	r[ct.slot] = val
	return true
}

func (ex *executor) resolvePathPreds(path *PathExpr, into map[*PathExpr]store.TermID) {
	if path == nil {
		return
	}
	if path.Kind == PathIRI {
		into[path], _ = ex.st.LookupID(path.IRI)
	}
	ex.resolvePathPreds(path.Left, into)
	ex.resolvePathPreds(path.Right, into)
}

// scan collects the (s, o) ends of the quads matching the id pattern
// in the pattern's graph scope.
func (pe *pathEval) scan(s, p, o store.TermID) []pair {
	if !pe.graphOK {
		return nil
	}
	var out []pair
	pe.lease.MatchIDs(s, p, o, pe.gid, func(ms, _, mo, _ store.TermID) bool {
		out = append(out, pair{ms, mo})
		return true
	})
	return out
}

// eval returns the (s,o) pairs connected by the path, restricted to
// the given endpoint constraints (0 is a wildcard).
func (pe *pathEval) eval(path *PathExpr, s, o store.TermID) []pair {
	switch path.Kind {
	case PathIRI:
		// A predicate the store has never seen matches nothing. Neither
		// does a query-local endpoint: it is in no quad, and its id must
		// not reach the store, where it would alias an unrelated term.
		p := pe.preds[path]
		if p == 0 {
			return nil
		}
		if s&localIDBit != 0 {
			return nil
		}
		if o&localIDBit != 0 {
			return nil
		}
		return pe.scan(s, p, o)
	case PathInverse:
		inv := pe.eval(path.Left, o, s)
		out := make([]pair, len(inv))
		for i, pr := range inv {
			out[i] = pair{pr[1], pr[0]}
		}
		return out
	case PathSeq:
		// Evaluate the more constrained side first.
		var l pairList
		if s != 0 || o == 0 {
			for _, lp := range pe.eval(path.Left, s, 0) {
				for _, rp := range pe.eval(path.Right, lp[1], o) {
					l.add(pair{lp[0], rp[1]})
				}
			}
		} else {
			for _, rp := range pe.eval(path.Right, 0, o) {
				for _, lp := range pe.eval(path.Left, 0, rp[0]) {
					l.add(pair{lp[0], rp[1]})
				}
			}
		}
		return l.out
	case PathAlt:
		var l pairList
		l.add(pe.eval(path.Left, s, o)...)
		l.add(pe.eval(path.Right, s, o)...)
		return l.out
	case PathZeroOrOne:
		var l pairList
		l.add(pe.reflexive(s, o)...)
		l.add(pe.eval(path.Left, s, o)...)
		return l.out
	case PathOneOrMore, PathZeroOrMore:
		return pe.closure(path, s, o)
	default:
		return nil
	}
}

// reflexive yields the zero-length matches: (x,x) for the constrained
// endpoints, or every graph node when both are wild.
func (pe *pathEval) reflexive(s, o store.TermID) []pair {
	switch {
	case s != 0 && o != 0:
		if s == o {
			return []pair{{s, o}}
		}
		return nil
	case s != 0:
		return []pair{{s, s}}
	case o != 0:
		return []pair{{o, o}}
	default:
		var out []pair
		for _, n := range pe.graphNodes() {
			out = append(out, pair{n, n})
		}
		return out
	}
}

// graphNodes enumerates every term used as subject or object.
func (pe *pathEval) graphNodes() []store.TermID {
	seen := map[store.TermID]bool{}
	var out []store.TermID
	for _, q := range pe.scan(0, 0, 0) {
		for _, n := range q {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out
}

// closure handles p+ and p* via BFS from the bound side.
func (pe *pathEval) closure(path *PathExpr, s, o store.TermID) []pair {
	inner := path.Left
	includeZero := path.Kind == PathZeroOrMore

	reach := func(start store.TermID, forward bool) []store.TermID {
		visited := map[store.TermID]bool{}
		frontier := []store.TermID{start}
		var order []store.TermID
		for len(frontier) > 0 {
			next := frontier
			frontier = nil
			for _, node := range next {
				var steps []pair
				if forward {
					steps = pe.eval(inner, node, 0)
				} else {
					steps = pe.eval(inner, 0, node)
				}
				for _, st := range steps {
					target := st[1]
					if !forward {
						target = st[0]
					}
					if !visited[target] {
						visited[target] = true
						order = append(order, target)
						frontier = append(frontier, target)
					}
				}
			}
		}
		return order
	}

	var l pairList
	switch {
	case s != 0:
		if includeZero && (o == 0 || o == s) {
			l.add(pair{s, s})
		}
		for _, target := range reach(s, true) {
			if o == 0 || o == target {
				l.add(pair{s, target})
			}
		}
	case o != 0:
		if includeZero {
			l.add(pair{o, o})
		}
		for _, source := range reach(o, false) {
			l.add(pair{source, o})
		}
	default:
		// Both wild: run from every node (small-store semantics).
		for _, n := range pe.graphNodes() {
			if includeZero {
				l.add(pair{n, n})
			}
			for _, target := range reach(n, true) {
				l.add(pair{n, target})
			}
		}
	}
	return l.out
}
