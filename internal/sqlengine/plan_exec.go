package sqlengine

import (
	"context"
	"fmt"
	"sort"
)

// evalAccessValue evaluates a point/bound expression with parameters
// only — access expressions are literals or parameters, never row
// references. ok=false (error or NULL) widens the access path.
func evalAccessValue(e Expr, params []Value) (Value, bool) {
	v, err := eval(e, &evalEnv{params: params})
	if err != nil || v.IsNull() {
		return Null, false
	}
	return v, true
}

// comparableWith reports whether Compare is defined between a bound
// value's type and the key column's type (Compare's own rule: any
// numeric mix, otherwise identical types). Incomparable bounds widen to
// a full scan so the row-level filter reproduces the interpreter's
// comparison error.
func comparableWith(v Value, colType Type) bool {
	if v.Type.isNumeric() && colType.isNumeric() {
		return true
	}
	return v.Type == colType
}

// baseRows gathers the base table's rows through the plan's access
// path. Any runtime binding failure (NULL key, uncoercible or
// incomparable bound) widens to a scan of the whole table: the full
// WHERE predicate is always re-applied, so a superset access path is
// exactly as correct as the narrowed one. When the plan's ORDER BY is
// index-satisfied the widened scan still iterates the ordered index so
// row order is preserved; otherwise row IDs are ascending, matching the
// interpreter's scan order.
func (p *selectPlan) baseRows(params []Value) [][]Value {
	t := p.t
	var ids []int64
	widen := false
	switch p.access {
	case accessFullScan:
		widen = true
	case accessHashPoint:
		v, ok := evalAccessValue(p.eq, params)
		if ok {
			// Coerce to the column type so the hash group key matches the
			// stored representation, as the interpreter's probe does.
			cv, err := v.Coerce(t.Columns[p.keyCol].Type)
			if err != nil {
				ok = false
			} else {
				v = cv
			}
		}
		if !ok {
			widen = true
			break
		}
		ids = append(ids, p.hashIx.lookup(v)...)
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	case accessOrderedPoint:
		v, ok := evalAccessValue(p.eq, params)
		if !ok || !comparableWith(v, t.Columns[p.keyCol].Type) {
			widen = true
			break
		}
		ids = append(ids, p.ordIx.lookup(v)...) // already id-ascending
	case accessOrderedRange:
		lo, hi, ok := p.rangeBounds(params)
		if !ok {
			widen = true
			break
		}
		ids = p.ordIx.appendRange(ids, lo, hi, p.orderSatisfied && p.desc)
		if !p.orderSatisfied {
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		}
	case accessOrderedScan:
		ids = p.ordIx.appendOrdered(ids, p.desc)
	}
	if widen {
		if p.orderSatisfied && p.ordIx != nil {
			ids = p.ordIx.appendOrdered(ids, p.desc)
		} else {
			ids = t.scan()
		}
	}
	rows := make([][]Value, 0, len(ids))
	for _, id := range ids {
		if r, ok := t.rows[id]; ok {
			rows = append(rows, r)
		}
	}
	return rows
}

// rangeBounds evaluates the plan's pushed-down bounds. ok=false means a
// bound evaluated to NULL or to a value Compare cannot order against
// the key column — the access widens and the filter settles it.
func (p *selectPlan) rangeBounds(params []Value) (lo, hi *ordBound, ok bool) {
	colType := p.t.Columns[p.keyCol].Type
	if p.lo != nil {
		v, vok := evalAccessValue(p.lo.expr, params)
		if !vok || !comparableWith(v, colType) {
			return nil, nil, false
		}
		lo = &ordBound{val: v, incl: p.lo.incl}
	}
	if p.hi != nil {
		v, vok := evalAccessValue(p.hi.expr, params)
		if !vok || !comparableWith(v, colType) {
			return nil, nil, false
		}
		hi = &ordBound{val: v, incl: p.hi.incl}
	}
	return lo, hi, true
}

// execPlan runs a compiled plan to a materialised result: the plan's
// rows, projected in delivery order, then sorted and trimmed per
// OFFSET/LIMIT with the interpreter's exact operation order and error
// surface. The caller holds d.mu for reading and has verified
// p.epoch == d.epoch.
func (d *Database) execPlan(ctx context.Context, p *selectPlan, params []Value) (*ResultSet, error) {
	env := &evalEnv{cols: p.cols, params: params, db: d, ctx: ctx}
	out := &ResultSet{Columns: p.projCols}
	needKeys := len(p.order) > 0 && !p.orderSatisfied
	var orderKeys [][]Value
	slab := newRowSlab(len(p.projExprs))
	err := p.eachRow(env, false, func(ch *colChunk, i int) error {
		vals := slab.next()
		if err := p.project(env, ch, i, vals); err != nil {
			return err
		}
		out.Rows = append(out.Rows, vals)
		if !needKeys {
			return nil
		}
		keys := make([]Value, len(p.order))
		for ki, k := range p.order {
			if k.kind == orderKeyProjected {
				keys[ki] = vals[k.idx]
				continue
			}
			v, err := eval(k.expr, env)
			if err != nil {
				return err
			}
			keys[ki] = v
		}
		orderKeys = append(orderKeys, keys)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if needKeys {
		if err := sortRows(out, orderKeys, p.sel.OrderBy); err != nil {
			return nil, err
		}
	}
	if err := applyOffsetLimit(out, p.sel, env); err != nil {
		return nil, err
	}
	return out, nil
}

// eachRow calls emit for every row the plan admits, in delivery order,
// with env.row set whenever the projection or sort keys read it. It is
// the one place that picks the execution tier:
//   - vector: a vector-annotated plan whose predicate binds for these
//     parameters walks the column chunks, and emit receives the chunk
//     and the row's position in it;
//   - row: otherwise the access path and joins gather the rows, the
//     WHERE filter runs over them, and emit receives a nil chunk.
//
// With lazy false the row tier filters every row before emitting any,
// the interpreter's order, so a materialised result raises the same
// first error. Streams pass lazy true to filter each row just before
// emitting it, which lets a LIMIT stop the scan early. Kernels never
// fail, so the vector tier needs no such choice. An error from emit
// ends the walk and is returned.
func (p *selectPlan) eachRow(env *evalEnv, lazy bool, emit func(ch *colChunk, i int) error) error {
	if p.vec != nil {
		if cs := env.db.bindChunkScan(p.vec.pred, p.t, env.params); cs != nil {
			return cs.walk(env.ctx, func(ch *colChunk, i int) error {
				if p.vec.needRow {
					env.row = p.t.rows[ch.ids[i]]
				}
				return emit(ch, i)
			})
		}
	}
	rows, err := p.joinedRows(env)
	if err != nil {
		return err
	}
	if !lazy && p.where != nil {
		kept := rows[:0:0]
		for _, r := range rows {
			if err := env.checkCtx(); err != nil {
				return err
			}
			env.row = r
			ok, err := p.filter(env)
			if err != nil {
				return err
			}
			if ok {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	for _, r := range rows {
		if err := env.checkCtx(); err != nil {
			return err
		}
		env.row = r
		if lazy {
			ok, err := p.filter(env)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		if err := emit(nil, 0); err != nil {
			return err
		}
	}
	return nil
}

// joinedRows is the row tier's source: the base table through the
// plan's access path, then each join in order. The strategy was decided
// at plan time; disableHashJoin is still consulted per execution so the
// equivalence toggle works on cached plans too, and the hash path keeps
// its runtime bail to the nested loop.
func (p *selectPlan) joinedRows(env *evalEnv) ([][]Value, error) {
	rows := p.baseRows(env.params)
	leftWidth := len(p.t.Columns)
	for i := range p.joins {
		j := &p.joins[i]
		right := make([][]Value, 0, len(j.t.order))
		for _, id := range j.t.scan() {
			right = append(right, j.t.rows[id])
		}
		joinEnv := &evalEnv{cols: j.cols, params: env.params, db: env.db, ctx: env.ctx}
		var joined [][]Value
		hashed := false
		if !disableHashJoin && j.hasEqui {
			out, ok, err := hashJoinRows(rows, right, joinEnv, leftWidth, j.rcols, j.clause, j.equi)
			if err != nil {
				return nil, err
			}
			joined, hashed = out, ok
		}
		if !hashed {
			var err error
			if joined, err = nestedLoopJoin(rows, right, joinEnv, leftWidth, j.rcols, j.clause); err != nil {
				return nil, err
			}
		}
		rows = joined
		leftWidth = len(j.cols)
	}
	return rows, nil
}

// filter evaluates the plan's WHERE clause against env.row.
func (p *selectPlan) filter(env *evalEnv) (bool, error) {
	if p.where == nil {
		return true, nil
	}
	v, err := eval(p.where, env)
	if err != nil {
		return false, err
	}
	return truthy(v)
}

// project fills vals with the select list for one emitted row: a
// columnar gather when the vector tier supplies the chunk and every
// output is a plain column, the compiled expressions over env.row
// otherwise.
func (p *selectPlan) project(env *evalEnv, ch *colChunk, i int, vals []Value) error {
	if ch != nil && p.vec.proj != nil {
		for k, ci := range p.vec.proj {
			vals[k] = ch.vecs[ci].value(i)
		}
		return nil
	}
	for k, e := range p.projExprs {
		v, err := eval(e, env)
		if err != nil {
			return err
		}
		vals[k] = v
	}
	return nil
}

// applyOffsetLimit trims a materialised result per OFFSET/LIMIT,
// evaluated after projection and ordering exactly as the interpreter
// does — no early termination, so evaluation errors surface for the
// same inputs. Shared by compiled select and aggregate plans.
func applyOffsetLimit(out *ResultSet, sel *SelectStmt, env *evalEnv) error {
	if sel.Offset != nil {
		n, err := evalCount(sel.Offset, env)
		if err != nil {
			return fmt.Errorf("OFFSET: %w", err)
		}
		if n >= len(out.Rows) {
			out.Rows = nil
		} else {
			out.Rows = out.Rows[n:]
		}
	}
	if sel.Limit != nil {
		n, err := evalCount(sel.Limit, env)
		if err != nil {
			return fmt.Errorf("LIMIT: %w", err)
		}
		if n < len(out.Rows) {
			out.Rows = out.Rows[:n]
		}
	}
	return nil
}
