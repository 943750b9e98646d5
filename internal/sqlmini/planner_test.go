package sqlmini

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"courserank/internal/relation"
)

// batchLine ends every Explain rendering: plans record the engine's
// executor slab size. The golden tests append it at the comparison so
// the want strings stay focused on access paths and join algorithms.
const batchLine = "vectorized batch=256\n"

// plannerDB builds a miniature CourseRank-shaped schema: an indexed
// catalog, an offering-year table and a comments table, the shapes the
// Figure 4/5 queries run against.
func plannerDB(t *testing.T) *Engine {
	t.Helper()
	db := relation.NewDB()
	courses := relation.MustTable("Courses", relation.MustSchema(
		relation.NotNullCol("CourseID", relation.TypeInt),
		relation.NotNullCol("Title", relation.TypeString),
		relation.NotNullCol("DepID", relation.TypeString),
	), relation.WithPrimaryKey("CourseID"), relation.WithIndex("DepID"), relation.WithIndex("Title"))
	db.MustCreate(courses)
	years := relation.MustTable("CourseYears", relation.MustSchema(
		relation.NotNullCol("CourseID", relation.TypeInt),
		relation.NotNullCol("Year", relation.TypeInt),
	), relation.WithPrimaryKey("CourseID", "Year"), relation.WithIndex("Year"), relation.WithIndex("CourseID"),
		relation.WithOrderedIndex("Year"), relation.WithOrderedIndex("CourseID"))
	db.MustCreate(years)
	comments := relation.MustTable("Comments", relation.MustSchema(
		relation.NotNullCol("CommentID", relation.TypeInt),
		relation.NotNullCol("SuID", relation.TypeInt),
		relation.NotNullCol("CourseID", relation.TypeInt),
		relation.Col("Rating", relation.TypeFloat),
	), relation.WithPrimaryKey("CommentID"), relation.WithIndex("SuID"), relation.WithIndex("CourseID"))
	db.MustCreate(comments)

	deps := []string{"cs", "ee", "me", "cs"}
	for i := 1; i <= 12; i++ {
		courses.MustInsert(relation.Row{int64(i), fmt.Sprintf("Course %d intro", i), deps[i%4]})
		years.MustInsert(relation.Row{int64(i), int64(2008 + i%2)})
	}
	cid := int64(1)
	for i := 1; i <= 30; i++ {
		var rating relation.Value
		if i%5 != 0 {
			rating = float64(1 + i%5)
		}
		comments.MustInsert(relation.Row{int64(i), int64(i % 7), cid, rating})
		cid = cid%12 + 1
	}
	// Enrollments is big enough (200 rows ≥ inljMinRight) that joining a
	// small probe side against it picks an index nested-loop join.
	enroll := relation.MustTable("Enrollments", relation.MustSchema(
		relation.NotNullCol("SuID", relation.TypeInt),
		relation.NotNullCol("CourseID", relation.TypeInt),
		relation.NotNullCol("Units", relation.TypeInt),
	), relation.WithIndex("SuID"), relation.WithOrderedIndex("CourseID"))
	db.MustCreate(enroll)
	for i := 0; i < 200; i++ {
		enroll.MustInsert(relation.Row{int64(i % 25), int64(1 + i%12), int64(3 + i%3)})
	}
	return New(db)
}

// TestExplainGolden pins the access paths the planner must choose for
// the representative Figure 4/5 query shapes.
func TestExplainGolden(t *testing.T) {
	e := plannerDB(t)
	cases := []struct {
		name string
		sql  string
		args []any
		want string
	}{
		{
			name: "figure5a reference: indexed equality probe",
			sql:  `SELECT * FROM Courses WHERE Title = ?`,
			args: []any{"Course 3 intro"},
			want: "index probe Courses (Title = 'Course 3 intro') ~1 of 12 rows\n",
		},
		{
			name: "point lookup by primary key",
			sql:  `SELECT Title FROM Courses WHERE CourseID = 7`,
			want: "pk lookup Courses (CourseID = 7) ~1 of 12 rows\n",
		},
		{
			name: "IN over the primary key: batched multi-key lookup",
			sql:  `SELECT Title FROM Courses WHERE CourseID IN (4, 2, 99)`,
			want: "pk lookup Courses (CourseID = 4, 2, 99) ~3 of 12 rows\n",
		},
		{
			name: "figure5a year scope: pushdown through the join",
			sql: `SELECT Title FROM Courses JOIN CourseYears ON Courses.CourseID = CourseYears.CourseID ` +
				`WHERE CourseYears.Year = ?`,
			args: []any{2008},
			want: "hash join on (Courses.CourseID = CourseYears.CourseID), build=right (INNER)\n" +
				"  index probe CourseYears (Year = 2008) ~6 of 12 rows\n" +
				"  scan Courses ~12 of 12 rows\n",
		},
		{
			name: "figure5b ratings: scan keeps the non-equi filter",
			sql:  `SELECT SuID, CourseID, Rating FROM Comments WHERE SuID <> ?`,
			args: []any{1},
			want: "scan Comments filter (SuID <> 1) ~30 of 30 rows\n",
		},
		{
			name: "IN list becomes a multi-key probe; small side builds",
			sql: `SELECT c.Title, m.Rating FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID ` +
				`WHERE m.SuID IN (1, 2)`,
			want: "hash join on (m.CourseID = c.CourseID), build=left (INNER)\n" +
				"  scan Courses AS c ~12 of 12 rows\n" +
				"  index probe Comments AS m (SuID = 1, 2) ~8 of 30 rows\n",
		},
		{
			name: "LEFT join: right ON conjunct pushes, build stays right",
			sql:  `SELECT * FROM Courses c LEFT JOIN Comments m ON c.CourseID = m.CourseID AND m.Rating > 3`,
			want: "hash join on (c.CourseID = m.CourseID), build=right (LEFT)\n" +
				"  scan Comments AS m filter (m.Rating > 3) ~30 of 30 rows\n" +
				"  scan Courses AS c ~12 of 12 rows\n",
		},
		{
			name: "LEFT join: WHERE on nullable side must not push down",
			sql: `SELECT * FROM Courses c LEFT JOIN Comments m ON c.CourseID = m.CourseID ` +
				`WHERE m.Rating > 3`,
			want: "hash join on (c.CourseID = m.CourseID), build=right (LEFT)\n" +
				"  scan Comments AS m ~30 of 30 rows\n" +
				"  scan Courses AS c ~12 of 12 rows\n" +
				"where (m.Rating > 3)\n",
		},
	}
	for _, tc := range cases {
		got, err := e.Explain(tc.sql, tc.args...)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want+batchLine {
			t.Errorf("%s:\n got:\n%s want:\n%s", tc.name, got, tc.want+batchLine)
		}
	}
}

func TestExplainRejectsNonSelect(t *testing.T) {
	e := plannerDB(t)
	if _, err := e.Explain(`DELETE FROM Comments`); err == nil {
		t.Fatal("Explain of a non-SELECT should fail")
	}
}

// TestPlannerParity runs a spread of query shapes both through the
// planner and through forced full-scan/nested-loop execution and
// requires byte-identical results, rows in the same order.
func TestPlannerParity(t *testing.T) {
	e := plannerDB(t)
	forced := e.ForceScan()

	queries := []struct {
		sql  string
		args []any
	}{
		{`SELECT * FROM Courses WHERE Title = ?`, []any{"Course 3 intro"}},
		{`SELECT * FROM Courses WHERE CourseID = 7`, nil},
		{`SELECT * FROM Courses WHERE DepID = 'cs' AND CourseID > 4`, nil},
		{`SELECT * FROM Comments WHERE SuID IN (1, 2, 5)`, nil},
		{`SELECT * FROM Courses WHERE CourseID IN (4, 2, 99)`, nil},
		{`SELECT * FROM Courses WHERE CourseID IN (2, 2, 4.0)`, nil},
		{`SELECT * FROM Comments WHERE SuID = ? AND Rating IS NOT NULL`, []any{3}},
		{`SELECT Title FROM Courses JOIN CourseYears ON Courses.CourseID = CourseYears.CourseID WHERE CourseYears.Year = ?`, []any{2008}},
		{`SELECT c.Title, m.Rating FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID WHERE m.SuID IN (1, 2)`, nil},
		{`SELECT * FROM Courses c LEFT JOIN Comments m ON c.CourseID = m.CourseID AND m.Rating > 3`, nil},
		{`SELECT * FROM Courses c LEFT JOIN Comments m ON c.CourseID = m.CourseID WHERE m.Rating > 3`, nil},
		{`SELECT c.DepID, COUNT(*), AVG(m.Rating) FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID GROUP BY c.DepID ORDER BY c.DepID`, nil},
		{`SELECT DISTINCT DepID FROM Courses WHERE CourseID <> 1 ORDER BY DepID DESC`, nil},
		{`SELECT m.CourseID, c.Title FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID AND c.DepID = 'cs' WHERE m.Rating >= 2 ORDER BY m.CourseID LIMIT 5`, nil},
		{`SELECT * FROM Comments WHERE SuID = 2 OR SuID = 4`, nil},
		{`SELECT c.Title FROM Courses c JOIN CourseYears y ON c.CourseID = y.CourseID WHERE y.Year = 2009 AND c.DepID = 'cs'`, nil},
	}
	for _, q := range queries {
		plan, err := e.Query(q.sql, q.args...)
		if err != nil {
			t.Errorf("planned %q: %v", q.sql, err)
			continue
		}
		naive, err := forced.Query(q.sql, q.args...)
		if err != nil {
			t.Errorf("forced %q: %v", q.sql, err)
			continue
		}
		if !reflect.DeepEqual(plan.Columns, naive.Columns) {
			t.Errorf("%q: columns %v vs %v", q.sql, plan.Columns, naive.Columns)
		}
		if len(plan.Rows) != len(naive.Rows) {
			t.Errorf("%q: %d rows planned vs %d forced", q.sql, len(plan.Rows), len(naive.Rows))
			continue
		}
		for i := range plan.Rows {
			if !reflect.DeepEqual(plan.Rows[i], naive.Rows[i]) {
				t.Errorf("%q row %d: %v vs %v", q.sql, i, plan.Rows[i], naive.Rows[i])
				break
			}
		}
	}
}

// TestForceScanPlansNaively pins what a ForceScan handle means: no
// index paths, no hash joins, no pushdown.
func TestForceScanPlansNaively(t *testing.T) {
	e := plannerDB(t).ForceScan()
	out, err := e.Explain(`SELECT Title FROM Courses JOIN CourseYears ON Courses.CourseID = CourseYears.CourseID WHERE CourseYears.Year = 2008`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "hash join") || strings.Contains(out, "probe") {
		t.Fatalf("forced plan still optimized:\n%s", out)
	}
	if !strings.Contains(out, "nested loop") {
		t.Fatalf("forced plan should nested-loop:\n%s", out)
	}
}

// TestExplainGoldenRangeINLJReorder pins the access paths and join
// algorithms introduced by the iterator executor: ordered-index range
// scans for inequality/BETWEEN predicates, index nested-loop joins when
// the probe side is far smaller than an indexed build side, cost-based
// reordering of INNER chains, and ORDER BY elision when the driving
// range scan already emits the sort key's order.
func TestExplainGoldenRangeINLJReorder(t *testing.T) {
	e := plannerDB(t)
	cases := []struct {
		name string
		sql  string
		args []any
		want string
	}{
		{
			name: "range scan with a literal lower bound, exact count from the index",
			sql:  `SELECT * FROM CourseYears WHERE Year >= 2009`,
			want: "range scan CourseYears (Year >= 2009) ~6 of 12 rows\n",
		},
		{
			name: "BETWEEN compiles to a two-bound range scan",
			sql:  `SELECT * FROM CourseYears WHERE Year BETWEEN 2008 AND 2009`,
			want: "range scan CourseYears (Year >= 2008 AND Year <= 2009) ~12 of 12 rows\n",
		},
		{
			name: "strict bound stays exclusive",
			sql:  `SELECT * FROM CourseYears WHERE Year > 2008`,
			want: "range scan CourseYears (Year > 2008) ~6 of 12 rows\n",
		},
		{
			name: "tiny probe side against a big indexed table: index nested loop",
			sql:  `SELECT * FROM Comments m JOIN Enrollments en ON m.SuID = en.SuID WHERE m.CommentID = 1`,
			want: "index nested loop on (m.SuID = en.SuID), probe=index(SuID) (INNER)\n" +
				"  scan Enrollments AS en ~200 of 200 rows\n" +
				"  pk lookup Comments AS m (CommentID = 1) ~1 of 30 rows\n",
		},
		{
			name: "INNER chain reorders to start from the most selective probe",
			sql: `SELECT c.Title FROM Courses c JOIN Comments m ON c.CourseID = m.CourseID ` +
				`JOIN CourseYears y ON c.CourseID = y.CourseID WHERE m.SuID = 1 AND y.Year = 2009`,
			want: "join order: m ⋈ c ⋈ y (reordered by estimated cost)\n" +
				"hash join on (c.CourseID = y.CourseID), build=right (INNER)\n" +
				"  index probe CourseYears AS y (Year = 2009) ~6 of 12 rows\n" +
				"  hash join on (c.CourseID = m.CourseID), build=left (INNER)\n" +
				"    scan Courses AS c ~12 of 12 rows\n" +
				"    index probe Comments AS m (SuID = 1) ~4 of 30 rows\n",
		},
		{
			name: "ORDER BY on the range column elides the sort",
			sql:  `SELECT CourseID, Year FROM CourseYears WHERE Year >= 2009 ORDER BY Year`,
			want: "range scan CourseYears (Year >= 2009) ~6 of 12 rows\n" +
				"order by Year elided (range scan emits sort order)\n",
		},
	}
	for _, tc := range cases {
		got, err := e.Explain(tc.sql, tc.args...)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want+batchLine {
			t.Errorf("%s:\n got:\n%s want:\n%s", tc.name, got, tc.want+batchLine)
		}
	}

	// A prepared range plan is chosen with the bound still unknown and
	// costed as a fixed fraction; the key renders as '?'.
	st, err := e.Prepare(`SELECT * FROM CourseYears WHERE Year >= ?`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if want := "range scan CourseYears (Year >= ?) ~4 of 12 rows\n" + batchLine; out != want {
		t.Errorf("prepared range explain:\n got:\n%s want:\n%s", out, want)
	}
}

// TestNoElisionWhenOrderDiffers pins the cases that must keep sorting:
// a different column than the driver's range key, aggregation, an
// output alias shadowing the range column with a different source, a
// descending key above a merge join (whose driver must stay ascending),
// and an unbounded walk over a NULLABLE ordered column (the index skips
// NULL keys, so the walk would drop rows the sort must keep).
func TestNoElisionWhenOrderDiffers(t *testing.T) {
	e := plannerDB(t)
	if _, err := e.Exec(`CREATE TABLE NullScores (ID INT NOT NULL, V INT, PRIMARY KEY (ID), ORDERED INDEX (V))`); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`SELECT CourseID, Year FROM CourseYears WHERE Year >= 2009 ORDER BY CourseID`,
		`SELECT Year, COUNT(*) AS n FROM CourseYears WHERE Year >= 2008 GROUP BY Year ORDER BY Year`,
		`SELECT CourseID AS Year FROM CourseYears WHERE Year >= 2009 ORDER BY Year`,
		`SELECT y.CourseID, en.SuID FROM CourseYears y JOIN Enrollments en ON y.CourseID = en.CourseID ORDER BY y.CourseID DESC`,
		`SELECT ID, V FROM NullScores ORDER BY V`,
		`SELECT ID, V FROM NullScores ORDER BY V DESC`,
	} {
		out, err := e.Explain(sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if strings.Contains(out, "elided") {
			t.Errorf("%q must not elide its sort:\n%s", sql, out)
		}
	}
}

// TestExplainGoldenSortAware pins the sort-aware access paths and join
// algorithms: merge joins over two ordered indexes on the join key
// (with ORDER BY elision surviving the join), descending range walks
// eliding ORDER BY key DESC, unbounded ordered walks adopted purely for
// their key order, and band joins probing an ordered index with
// per-left-row bounds.
func TestExplainGoldenSortAware(t *testing.T) {
	e := plannerDB(t)
	cases := []struct {
		name string
		sql  string
		args []any
		want string
	}{
		{
			name: "two ordered indexes on the join key: merge join, no hash build",
			sql:  `SELECT y.CourseID, en.SuID FROM CourseYears y JOIN Enrollments en ON y.CourseID = en.CourseID`,
			want: "merge join on (y.CourseID = en.CourseID) (INNER)\n" +
				"  ordered scan Enrollments AS en (CourseID) ~200 of 200 rows\n" +
				"  ordered scan CourseYears AS y (CourseID) ~12 of 12 rows\n",
		},
		{
			name: "merge join preserves the driver's key order: ORDER BY elides through the join",
			sql:  `SELECT y.CourseID, en.SuID FROM CourseYears y JOIN Enrollments en ON y.CourseID = en.CourseID ORDER BY y.CourseID`,
			want: "merge join on (y.CourseID = en.CourseID) (INNER)\n" +
				"  ordered scan Enrollments AS en (CourseID) ~200 of 200 rows\n" +
				"  ordered scan CourseYears AS y (CourseID) ~12 of 12 rows\n" +
				"order by y.CourseID elided (range scan emits sort order)\n",
		},
		{
			name: "ORDER BY key DESC rides a descending range walk",
			sql:  `SELECT CourseID, Year FROM CourseYears WHERE Year >= 2009 ORDER BY Year DESC`,
			want: "range scan desc CourseYears (Year >= 2009) ~6 of 12 rows\n" +
				"order by Year DESC elided (range scan emits sort order)\n",
		},
		{
			name: "no range predicate: a full scan trades for an unbounded descending walk",
			sql:  `SELECT CourseID, Year FROM CourseYears ORDER BY Year DESC`,
			want: "ordered scan desc CourseYears (Year) ~12 of 12 rows\n" +
				"order by Year DESC elided (range scan emits sort order)\n",
		},
		{
			name: "band join: per-left-row range probes of the ordered index",
			sql: `SELECT a.CourseID, b.CourseID FROM CourseYears a ` +
				`JOIN CourseYears b ON b.Year BETWEEN a.Year - 1 AND a.Year + 1 WHERE a.CourseID = 3`,
			want: "index nested loop on b.Year BETWEEN (a.Year - 1) AND (a.Year + 1), probe=range(Year) (INNER)\n" +
				"  scan CourseYears AS b ~12 of 12 rows\n" +
				"  index probe CourseYears AS a (CourseID = 3) ~1 of 12 rows\n",
		},
	}
	for _, tc := range cases {
		got, err := e.Explain(tc.sql, tc.args...)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want+batchLine {
			t.Errorf("%s:\n got:\n%s want:\n%s", tc.name, got, tc.want+batchLine)
		}
	}

	// A prepared descending range plan is chosen with the bound still
	// unknown; the elision decision does not depend on the key's value.
	st, err := e.Prepare(`SELECT CourseID, Year FROM CourseYears WHERE Year <= ? ORDER BY Year DESC`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := st.Explain()
	if err != nil {
		t.Fatal(err)
	}
	want := "range scan desc CourseYears (Year <= ?) ~4 of 12 rows\n" +
		"order by Year DESC elided (range scan emits sort order)\n" + batchLine
	if out != want {
		t.Errorf("prepared desc explain:\n got:\n%s want:\n%s", out, want)
	}
}

// TestSortAwareParity runs the merge-join, descending-elision and
// band-join plan shapes against forced full-scan execution. Queries
// whose ORDER BY pins a deterministic order (elided or not — both
// paths break ties in slot order) compare exactly; the rest compare as
// multisets.
func TestSortAwareParity(t *testing.T) {
	e := plannerDB(t)
	forced := e.ForceScan()

	exact := []struct {
		sql  string
		args []any
	}{
		{`SELECT CourseID, Year FROM CourseYears WHERE Year >= 2008 ORDER BY Year DESC`, nil},
		{`SELECT CourseID, Year FROM CourseYears WHERE Year >= ? ORDER BY Year DESC LIMIT 4 OFFSET 1`, []any{2008}},
		{`SELECT CourseID, Year FROM CourseYears ORDER BY Year DESC LIMIT 5`, nil},
		{`SELECT y.CourseID, en.SuID FROM CourseYears y JOIN Enrollments en ON y.CourseID = en.CourseID ORDER BY y.CourseID`, nil},
		{`SELECT y.CourseID, y.Year, en.SuID, en.Units FROM CourseYears y JOIN Enrollments en ON y.CourseID = en.CourseID ORDER BY y.CourseID, y.Year, en.SuID, en.Units`, nil},
		{`SELECT y.CourseID, en.SuID FROM CourseYears y JOIN Enrollments en ON y.CourseID = en.CourseID ORDER BY y.CourseID DESC`, nil},
		{`SELECT a.CourseID, a.Year, b.CourseID, b.Year FROM CourseYears a JOIN CourseYears b ON b.Year BETWEEN a.Year - 1 AND a.Year + 1 WHERE a.CourseID = 3 ORDER BY b.CourseID, b.Year`, nil},
		{`SELECT m.CommentID, y.CourseID, y.Year FROM Comments m LEFT JOIN CourseYears y ON y.Year BETWEEN m.SuID + 2004 AND m.SuID + 2005 ORDER BY m.CommentID, y.CourseID, y.Year`, nil},
		{`SELECT m.CommentID, y.CourseID FROM Comments m JOIN CourseYears y ON y.Year BETWEEN m.SuID + ? AND m.SuID + ? ORDER BY m.CommentID, y.CourseID, y.Year`, []any{2004, 2006}},
	}
	for _, q := range exact {
		plan, err := e.Query(q.sql, q.args...)
		if err != nil {
			t.Errorf("planned %q: %v", q.sql, err)
			continue
		}
		naive, err := forced.Query(q.sql, q.args...)
		if err != nil {
			t.Errorf("forced %q: %v", q.sql, err)
			continue
		}
		if !reflect.DeepEqual(plan, naive) {
			t.Errorf("%q: planned and forced results differ\nplanned: %v\nforced:  %v", q.sql, plan.Rows, naive.Rows)
		}
	}

	multiset := []struct {
		sql  string
		args []any
	}{
		{`SELECT y.CourseID, en.SuID, en.Units FROM CourseYears y JOIN Enrollments en ON y.CourseID = en.CourseID WHERE en.Units >= 4`, nil},
		{`SELECT a.CourseID, b.CourseID FROM CourseYears a JOIN CourseYears b ON b.Year BETWEEN a.Year AND a.Year + 1`, nil},
		{`SELECT m.CommentID, y.CourseID FROM Comments m JOIN CourseYears y ON y.Year BETWEEN m.SuID + 2004 AND m.SuID + 2006 AND m.Rating IS NOT NULL`, nil},
	}
	for _, q := range multiset {
		plan, err := e.Query(q.sql, q.args...)
		if err != nil {
			t.Errorf("planned %q: %v", q.sql, err)
			continue
		}
		naive, err := forced.Query(q.sql, q.args...)
		if err != nil {
			t.Errorf("forced %q: %v", q.sql, err)
			continue
		}
		if !reflect.DeepEqual(sortedRows(plan), sortedRows(naive)) {
			t.Errorf("%q: planned and forced row multisets differ\nplanned: %v\nforced:  %v", q.sql, plan.Rows, naive.Rows)
		}
	}

	// NULL semantics around the nullable ordered column: the bounded
	// descending walk excludes NULL keys exactly like the filter does,
	// and the refused unbounded elision keeps NULL rows in the sort.
	if _, err := e.Exec(`CREATE TABLE NullRatings (ID INT NOT NULL, R FLOAT, PRIMARY KEY (ID), ORDERED INDEX (R))`); err != nil {
		t.Fatal(err)
	}
	for i, r := range []any{3.5, nil, 1.0, nil, 4.5, 2.0} {
		if _, err := e.Exec(`INSERT INTO NullRatings VALUES (?, ?)`, int64(i), r); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range []string{
		`SELECT ID, R FROM NullRatings WHERE R >= 1.5 ORDER BY R DESC`,
		`SELECT ID, R FROM NullRatings ORDER BY R DESC`,
		`SELECT ID, R FROM NullRatings ORDER BY R`,
	} {
		plan, err := e.Query(sql)
		if err != nil {
			t.Fatalf("planned %q: %v", sql, err)
		}
		naive, err := forced.Query(sql)
		if err != nil {
			t.Fatalf("forced %q: %v", sql, err)
		}
		if !reflect.DeepEqual(plan, naive) {
			t.Errorf("%q: planned and forced results differ\nplanned: %v\nforced:  %v", sql, plan.Rows, naive.Rows)
		}
	}
}

// sortedRows renders and sorts a result's rows for order-insensitive
// comparison — range scans emit key order, reordered joins another
// table's major order, so only the multiset is pinned for those.
func sortedRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// TestRangeINLJReorderParity runs the new plan shapes against forced
// full-scan execution. Queries whose output order the engine guarantees
// (ORDER BY, with or without elision) compare exactly; the rest compare
// as multisets.
func TestRangeINLJReorderParity(t *testing.T) {
	e := plannerDB(t)
	forced := e.ForceScan()

	exact := []struct {
		sql  string
		args []any
	}{
		{`SELECT CourseID, Year FROM CourseYears WHERE Year >= 2009 ORDER BY Year`, nil},
		{`SELECT CourseID, Year FROM CourseYears WHERE Year >= ? ORDER BY Year LIMIT 4`, []any{2008}},
		{`SELECT CourseID, Year FROM CourseYears WHERE Year BETWEEN 2008 AND 2009 ORDER BY Year, CourseID`, nil},
		{`SELECT * FROM Comments m JOIN Enrollments en ON m.SuID = en.SuID WHERE m.CommentID = 1`, nil},
		{`SELECT en.CourseID, c.Title FROM Enrollments en JOIN Courses c ON en.CourseID = c.CourseID WHERE en.SuID = 3`, nil},
	}
	for _, q := range exact {
		plan, err := e.Query(q.sql, q.args...)
		if err != nil {
			t.Errorf("planned %q: %v", q.sql, err)
			continue
		}
		naive, err := forced.Query(q.sql, q.args...)
		if err != nil {
			t.Errorf("forced %q: %v", q.sql, err)
			continue
		}
		if !reflect.DeepEqual(plan, naive) {
			t.Errorf("%q: planned and forced results differ\nplanned: %v\nforced:  %v", q.sql, plan.Rows, naive.Rows)
		}
	}

	multiset := []struct {
		sql  string
		args []any
	}{
		{`SELECT * FROM CourseYears WHERE Year >= 2009`, nil},
		{`SELECT * FROM CourseYears WHERE Year > ? AND Year <= ?`, []any{2007, 2009}},
		{`SELECT * FROM CourseYears WHERE Year NOT BETWEEN 2009 AND 2010`, nil},
		{`SELECT c.Title FROM Courses c JOIN Comments m ON c.CourseID = m.CourseID JOIN CourseYears y ON c.CourseID = y.CourseID WHERE m.SuID = 1 AND y.Year = 2009`, nil},
		{`SELECT c.DepID, m.Rating FROM Courses c JOIN Comments m ON c.CourseID = m.CourseID JOIN CourseYears y ON c.CourseID = y.CourseID WHERE m.Rating >= 2 AND y.Year = 2008 AND c.DepID <> 'me'`, nil},
	}
	for _, q := range multiset {
		plan, err := e.Query(q.sql, q.args...)
		if err != nil {
			t.Errorf("planned %q: %v", q.sql, err)
			continue
		}
		naive, err := forced.Query(q.sql, q.args...)
		if err != nil {
			t.Errorf("forced %q: %v", q.sql, err)
			continue
		}
		if !reflect.DeepEqual(plan.Columns, naive.Columns) {
			t.Errorf("%q: columns %v vs %v", q.sql, plan.Columns, naive.Columns)
			continue
		}
		if !reflect.DeepEqual(sortedRows(plan), sortedRows(naive)) {
			t.Errorf("%q: planned and forced row multisets differ\nplanned: %v\nforced:  %v", q.sql, plan.Rows, naive.Rows)
		}
	}
}

// TestCreateOrderedIndexSQL covers the DDL surface: ORDERED INDEX in
// CREATE TABLE wires a range access path end to end.
func TestCreateOrderedIndexSQL(t *testing.T) {
	e := New(relation.NewDB())
	if _, err := e.Exec(`CREATE TABLE Readings (ID INT NOT NULL, Temp FLOAT NOT NULL, PRIMARY KEY (ID), ORDERED INDEX (Temp))`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := e.Exec(`INSERT INTO Readings VALUES (?, ?)`, int64(i), float64(i)/2); err != nil {
			t.Fatal(err)
		}
	}
	out, err := e.Explain(`SELECT ID FROM Readings WHERE Temp >= 5.0`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "range scan Readings (Temp >= 5)") {
		t.Fatalf("ORDERED INDEX did not produce a range plan:\n%s", out)
	}
	res, err := e.Query(`SELECT ID FROM Readings WHERE Temp >= 5.0 ORDER BY Temp`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 || res.Rows[0][0] != int64(10) {
		t.Fatalf("range query rows: %v", res.Rows)
	}
}

// TestPlannerErrorParity keeps the error surface aligned with the
// pre-planner engine: ambiguous and unknown names still fail.
func TestPlannerErrorParity(t *testing.T) {
	e := plannerDB(t)
	bad := []string{
		`SELECT Rating FROM Comments m JOIN Courses c ON m.CourseID = c.CourseID WHERE CourseID = 1`, // ambiguous
		`SELECT * FROM Courses WHERE Nope = 1`,
		`SELECT * FROM NoSuch WHERE A = 1`,
	}
	for _, q := range bad {
		if _, err := e.Query(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

// TestPlannerSeesMutations guards against stale statistics: plans adapt
// and results stay correct as data changes.
func TestPlannerSeesMutations(t *testing.T) {
	e := plannerDB(t)
	if _, err := e.Exec(`INSERT INTO Courses (CourseID, Title, DepID) VALUES (99, 'Late addition', 'cs')`); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(`SELECT Title FROM Courses WHERE CourseID = 99`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "Late addition" {
		t.Fatalf("pk lookup after insert: %v %v", res, err)
	}
	if _, err := e.Exec(`DELETE FROM Courses WHERE CourseID = 99`); err != nil {
		t.Fatal(err)
	}
	res, err = e.Query(`SELECT Title FROM Courses WHERE CourseID = 99`)
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("pk lookup after delete: %v %v", res, err)
	}
	out, err := e.Explain(`SELECT * FROM Courses WHERE CourseID = 99`)
	if err != nil || !strings.Contains(out, "of 12 rows") {
		t.Fatalf("stats should reflect the delete: %q %v", out, err)
	}
}
