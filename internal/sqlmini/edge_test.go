package sqlmini

import (
	"strings"
	"testing"

	"courserank/internal/relation"
)

func TestQuotedIdentifiers(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `SELECT "Title" FROM "Courses" WHERE "CourseID" = 1`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if _, err := e.Query(`SELECT "Unterminated FROM Courses`); err == nil {
		t.Error("unterminated quoted identifier should fail")
	}
}

func TestParseExprStandalone(t *testing.T) {
	expr, err := ParseExpr(`A + 1 > ?`, 5)
	if err != nil {
		t.Fatal(err)
	}
	v, err := EvalExpr(expr, []string{"A"}, []relation.Value{int64(7)})
	if err != nil {
		t.Fatal(err)
	}
	if v != true {
		t.Errorf("7+1 > 5 = %v", v)
	}
	// Error paths.
	if _, err := ParseExpr(`A +`); err == nil {
		t.Error("truncated expr should fail")
	}
	if _, err := ParseExpr(`A B C`); err == nil {
		t.Error("trailing tokens should fail")
	}
	if _, err := ParseExpr(`?`); err == nil {
		t.Error("missing arg should fail")
	}
	if _, err := ParseExpr(`1`, 2); err == nil {
		t.Error("unused arg should fail")
	}
	if _, err := ParseExpr(`$bad$`); err == nil {
		t.Error("lexer garbage should fail")
	}
	if _, err := ParseExpr(`A = ?`, struct{}{}); err == nil {
		t.Error("unsupported arg type should fail")
	}
	// Unknown column at eval time.
	expr2, _ := ParseExpr(`Nope = 1`)
	if _, err := EvalExpr(expr2, []string{"A"}, []relation.Value{int64(1)}); err == nil {
		t.Error("unknown column should fail at eval")
	}
}

func TestUnaryAndConcatEdges(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `SELECT -GPA, NOT (GPA > 3.5), Name || '!' FROM Students WHERE SuID = 444`)
	r := res.Rows[0]
	if r[0] != -3.8 || r[1] != false || r[2] != "Sally!" {
		t.Errorf("row = %v", r)
	}
	if _, err := e.Query(`SELECT -Name FROM Students`); err == nil {
		t.Error("negating a string should fail")
	}
	// NULL propagation through concat and arithmetic.
	res = mustQuery(t, e, `SELECT Rating + 1, Rating || 'x' FROM Comments WHERE Rating IS NULL`)
	if res.Rows[0][0] != nil || res.Rows[0][1] != nil {
		t.Errorf("NULL propagation: %v", res.Rows[0])
	}
}

func TestArithMixedAndModulo(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `SELECT 2.5 * 2, 5 % 2.5, 7.0 / 2 FROM Students WHERE SuID = 444`)
	r := res.Rows[0]
	if r[0] != 5.0 || r[1] != 0.0 || r[2] != 3.5 {
		t.Errorf("row = %v", r)
	}
	if _, err := e.Query(`SELECT 5 % 0 FROM Students`); err == nil {
		t.Error("modulo by zero should fail")
	}
	if _, err := e.Query(`SELECT 5.0 / 0.0 FROM Students`); err == nil {
		t.Error("float division by zero should fail")
	}
	if _, err := e.Query(`SELECT 'a' + 1 FROM Students`); err == nil {
		t.Error("string arithmetic should fail")
	}
}

func TestAggregateInsideExpression(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `
		SELECT CourseID, AVG(Rating) * 2 + 1 AS Boosted, UPPER('x') AS U,
		       COUNT(*) > 1 AS Multi
		FROM Comments GROUP BY CourseID HAVING NOT (COUNT(*) = 0) ORDER BY CourseID LIMIT 1`)
	r := res.Rows[0]
	if r[0] != int64(1) {
		t.Fatalf("row = %v", r)
	}
	boosted := r[1].(float64)
	if boosted < 10.3 || boosted > 10.4 { // avg 14/3 → *2+1 = 10.33
		t.Errorf("boosted = %v", boosted)
	}
	if r[2] != "X" || r[3] != true {
		t.Errorf("row = %v", r)
	}
	// Aggregate-mode IN/IS NULL over group head, and OR short-circuit.
	res = mustQuery(t, e, `
		SELECT CourseID IN (1, 2) OR COUNT(*) > 99, Rating IS NOT NULL
		FROM Comments GROUP BY CourseID ORDER BY CourseID LIMIT 1`)
	if res.Rows[0][0] != true || res.Rows[0][1] != true {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestAggregateErrors(t *testing.T) {
	e := testDB(t)
	for _, q := range []string{
		`SELECT SUM(*) FROM Comments`,
		`SELECT AVG(Text) FROM Comments`,
		`SELECT COUNT(Rating) FROM Comments WHERE AVG(Rating) > 1`, // aggregate in WHERE
	} {
		if _, err := e.Query(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

func TestDeleteAllAndUpdateAll(t *testing.T) {
	e := testDB(t)
	n, err := e.Exec(`UPDATE Comments SET Year = 2009`)
	if err != nil || n != 6 {
		t.Fatalf("update all = %d, %v", n, err)
	}
	n, err = e.Exec(`DELETE FROM Comments`)
	if err != nil || n != 6 {
		t.Fatalf("delete all = %d, %v", n, err)
	}
	if _, err := e.Exec(`DELETE FROM NoSuch`); err == nil {
		t.Error("delete from missing table should fail")
	}
	if _, err := e.Exec(`UPDATE NoSuch SET X = 1`); err == nil {
		t.Error("update of missing table should fail")
	}
}

func TestLexerEdges(t *testing.T) {
	// Escaped quote inside a string literal.
	e := testDB(t)
	res := mustQuery(t, e, `SELECT 'it''s fine' FROM Students WHERE SuID = 444`)
	if res.Rows[0][0] != "it's fine" {
		t.Errorf("escape = %q", res.Rows[0][0])
	}
	// Leading-dot float.
	res = mustQuery(t, e, `SELECT .5 + 1 FROM Students WHERE SuID = 444`)
	if res.Rows[0][0] != 1.5 {
		t.Errorf(".5+1 = %v", res.Rows[0][0])
	}
	if _, err := e.Query(`SELECT @ FROM Students`); err == nil {
		t.Error("stray character should fail")
	}
}

func TestJoinVariantsParse(t *testing.T) {
	e := testDB(t)
	for _, q := range []string{
		`SELECT s.Name FROM Comments m INNER JOIN Students s ON m.SuID = s.SuID LIMIT 1`,
		`SELECT s.Name FROM Comments m LEFT OUTER JOIN Students s ON m.SuID = s.SuID LIMIT 1`,
	} {
		if _, err := e.Query(q); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
	// Join with NULL keys never matches (the NULL-rating comment's
	// Rating joined against itself).
	res := mustQuery(t, e, `
		SELECT COUNT(*) FROM Comments a JOIN Comments b ON a.Rating = b.Rating AND a.SuID = 446 AND b.SuID = 446`)
	// Student 446 has ratings 5 (course 1) and NULL (course 5): only the
	// non-NULL row self-joins.
	if res.Rows[0][0] != int64(1) {
		t.Errorf("self join count = %v", res.Rows[0][0])
	}
}

func TestStatementStrings(t *testing.T) {
	// Exercise the String methods on a parse of each expression form.
	st, err := Parse(`SELECT COUNT(*), LOWER(Name), A.B, -X, Title LIKE 'a%'
		FROM t WHERE A IN (1) AND B BETWEEN 1 AND 2 AND C IS NULL AND NOT D`)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*SelectStmt)
	var parts []string
	for _, item := range sel.List {
		parts = append(parts, item.Expr.String())
	}
	joined := strings.Join(parts, " | ")
	for _, want := range []string{"COUNT(*)", "LOWER(Name)", "A.B", "- X", "LIKE"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in %q", want, joined)
		}
	}
	if sel.Where.String() == "" {
		t.Error("where string")
	}
}

func TestEngineDBAccessor(t *testing.T) {
	db := relation.NewDB()
	e := New(db)
	if e.DB() != db {
		t.Error("DB accessor")
	}
}

func TestOffsetBeyondEnd(t *testing.T) {
	e := testDB(t)
	res := mustQuery(t, e, `SELECT * FROM Students LIMIT 10 OFFSET 99`)
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v", res.Rows)
	}
	res = mustQuery(t, e, `SELECT * FROM Students LIMIT 0`)
	if len(res.Rows) != 0 {
		t.Errorf("limit 0 rows = %v", res.Rows)
	}
}

// TestCreateTableRejectsBadColumns: a CREATE TABLE whose column names
// collide case-insensitively, or are empty, is an error rather than a
// panic, and leaves the database without the table.
func TestCreateTableRejectsBadColumns(t *testing.T) {
	e := New(relation.NewDB())
	for _, sql := range []string{
		`CREATE TABLE t (a INT, A TEXT)`,
		`CREATE TABLE t (a INT, b TEXT, a INT)`,
		`CREATE TABLE t ("" INT)`,
	} {
		if _, err := e.Exec(sql); err == nil {
			t.Errorf("%s: want an error", sql)
		}
		if _, ok := e.DB().Table("t"); ok {
			t.Fatalf("%s: table t exists after the failed CREATE", sql)
		}
	}
	if _, err := e.Exec(`CREATE TABLE t (a INT, b TEXT)`); err != nil {
		t.Fatalf("valid CREATE after the rejected ones: %v", err)
	}
}
