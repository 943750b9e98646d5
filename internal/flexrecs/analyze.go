package flexrecs

import (
	"fmt"
	"strings"
	"time"

	"courserank/internal/matview"
)

// EXPLAIN ANALYZE for workflows: the workflow executes for real and
// the report is Explain's operator tree annotated with per-step
// actuals. SQL-compiled subtrees run through the statement's analyze
// path, so their lines carry the fully annotated physical plan
// (per-operator rows/batches/time, short-circuit).
// Materialize steps report how THIS request was served: a matview hit
// with the snapshot's age and freshness, a stale serve, or the build a
// cold view paid. Step times are inclusive of the step's operands,
// matching the SQL layer's convention.

// analyzeNode is one rendered line of the report plus its children —
// built bottom-up because a step's actuals are known only after its
// subtree ran.
type analyzeNode struct {
	line     string
	sub      []string // extra own lines (indented plan text)
	children []*analyzeNode
}

func (n *analyzeNode) render(depth int, b *strings.Builder) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%s\n", indent, n.line)
	for _, s := range n.sub {
		fmt.Fprintf(b, "%s  | %s\n", indent, s)
	}
	for _, c := range n.children {
		c.render(depth+1, b)
	}
}

// RunAnalyze validates and executes a workflow with instrumentation,
// returning the result and the annotated report.
func (e *Engine) RunAnalyze(w *Step) (*Relation, string, error) {
	if err := w.Validate(); err != nil {
		return nil, "", err
	}
	t0 := time.Now()
	rel, root, err := e.analyzeStep(w)
	if err != nil {
		return nil, "", err
	}
	var b strings.Builder
	root.render(0, &b)
	fmt.Fprintf(&b, "analyzed workflow: %d rows out, total %s\n",
		len(rel.Rows), time.Since(t0).Round(time.Microsecond))
	return rel, b.String(), nil
}

// ExplainAnalyze is RunAnalyze discarding the rows.
func (e *Engine) ExplainAnalyze(w *Step) (string, error) {
	_, report, err := e.RunAnalyze(w)
	return report, err
}

func (e *Engine) analyzeStep(s *Step) (*Relation, *analyzeNode, error) {
	if sqlable(s) {
		return e.analyzeSQL(s)
	}
	if s.kind == matStep {
		return e.analyzeMat(s)
	}
	node := &analyzeNode{}
	run := func(cs *Step) (*Relation, error) {
		rel, child, err := e.analyzeStep(cs)
		if err != nil {
			return nil, err
		}
		node.children = append(node.children, child)
		return rel, nil
	}
	t0 := time.Now()
	rel, err := e.applyStep(s, run)
	if err != nil {
		return nil, nil, err
	}
	node.line = fmt.Sprintf("%s (actual rows=%d time=%s)",
		s.describe(), len(rel.Rows), time.Since(t0).Round(time.Microsecond))
	return rel, node, nil
}

// analyzeSQL runs one compiled subtree through the statement's
// analyze path for the annotated physical plan.
func (e *Engine) analyzeSQL(s *Step) (*Relation, *analyzeNode, error) {
	cs, err := e.compiledFor(s)
	if err != nil {
		return nil, nil, err
	}
	args := gatherShapeArgs(s, nil)
	for i, j := 0, len(args)-1; i < j; i, j = i+1, j-1 {
		args[i], args[j] = args[j], args[i]
	}
	t0 := time.Now()
	res, plan, err := cs.stmt.QueryAnalyze(args...)
	d := time.Since(t0)
	if err != nil {
		return nil, nil, fmt.Errorf("flexrecs: executing %q: %w", cs.sql, err)
	}
	rel := &Relation{Cols: res.Columns, Rows: make([][]any, len(res.Rows))}
	for i, r := range res.Rows {
		rel.Rows[i] = r
	}
	node := &analyzeNode{}
	head := "SQL> " + cs.sql
	if len(args) > 0 {
		head += fmt.Sprintf("  -- args %v", args)
	}
	node.line = fmt.Sprintf("%s (actual rows=%d time=%s)", head, len(rel.Rows), d.Round(time.Microsecond))
	if plan != "" {
		node.sub = strings.Split(strings.TrimRight(plan, "\n"), "\n")
	}
	return rel, node, nil
}

// analyzeMat runs one Materialize step, annotating how it was served.
// A hit or stale serve never ran the child, so the line is the whole
// story; a build ran the child uninstrumented inside the registry's
// single-flight, and the line says what that cost.
func (e *Engine) analyzeMat(s *Step) (*Relation, *analyzeNode, error) {
	t0 := time.Now()
	rel, serve, hadRegistry, err := e.runMatServe(s)
	if err != nil {
		return nil, nil, err
	}
	d := time.Since(t0).Round(time.Microsecond)
	var how string
	switch {
	case !hadRegistry:
		how = "no registry (transparent, ran child)"
	case serve.Kind == matview.ServeFresh:
		how = fmt.Sprintf("matview hit (age=%v, fresh)", serve.Age.Round(time.Millisecond))
	case serve.Kind == matview.ServeStale:
		how = fmt.Sprintf("matview hit (age=%v, stale for %v)",
			serve.Age.Round(time.Millisecond), serve.StaleFor.Round(time.Millisecond))
	default:
		how = "matview miss (built by this request)"
	}
	node := &analyzeNode{line: fmt.Sprintf("%s — %s (actual rows=%d time=%s)", s.describe(), how, len(rel.Rows), d)}
	return rel, node, nil
}
