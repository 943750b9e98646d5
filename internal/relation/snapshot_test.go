package relation

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func snapshotDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	students, err := NewTable("Students",
		MustSchema(NotNullCol("SuID", TypeInt), NotNullCol("Name", TypeString), Col("GPA", TypeFloat), Col("Active", TypeBool)),
		WithPrimaryKey("SuID"), WithAutoIncrement("SuID"), WithIndex("Name"))
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreate(students)
	students.MustInsert(Row{nil, "Ann", 3.9, true})
	students.MustInsert(Row{nil, "Bob", nil, false})
	plain, err := NewTable("Plain", MustSchema(Col("X", TypeInt)))
	if err != nil {
		t.Fatal(err)
	}
	db.MustCreate(plain)
	plain.MustInsert(Row{int64(7)})
	return db
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := snapshotDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if names := got.Names(); len(names) != 2 {
		t.Fatalf("tables = %v", names)
	}
	st := got.MustTable("Students")
	if st.Len() != 2 {
		t.Fatalf("rows = %d", st.Len())
	}
	row, ok := st.Get(int64(1))
	if !ok || row[1] != "Ann" || row[2] != 3.9 || row[3] != true {
		t.Errorf("row = %v", row)
	}
	row, _ = st.Get(int64(2))
	if row[2] != nil || row[3] != false {
		t.Errorf("null round trip: %v", row)
	}
	// Metadata survives: PK, auto-increment continues, index works.
	if got := st.PrimaryKey(); len(got) != 1 || got[0] != "SuID" {
		t.Errorf("pk = %v", got)
	}
	if st.AutoIncrement() != "SuID" {
		t.Errorf("autoinc = %q", st.AutoIncrement())
	}
	st.MustInsert(Row{nil, "Cal", 3.0, true})
	if _, ok := st.Get(int64(3)); !ok {
		t.Error("auto-increment did not resume after load")
	}
	if hits := st.Lookup("Name", "Ann"); len(hits) != 1 {
		t.Errorf("index lookup = %v", hits)
	}
	if !st.HasIndex("Name") {
		t.Error("secondary index lost")
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		`{"table":"T","columns":[{"name":"A","type":"WAT"}],"rows":0}`,
		`{"table":"T","columns":[{"name":"A","type":"INT"}],"rows":1}` + "\n" + `["x"]`,
		`{"table":"T","columns":[{"name":"A","type":"INT"}],"rows":1}` + "\n" + `[1,2]`,
		`{"table":"T","columns":[{"name":"A","type":"INT"}],"rows":1}`, // missing row
		`not json`,
		`{"table":"T","columns":[{"name":"A","type":"INT"}],"pk":["nope"],"rows":0}`,
		`{"table":"T","columns":[{"name":"a","type":"INT"},{"name":"A","type":"TEXT"}],"rows":0}`, // duplicate column
		`{"table":"T","columns":[{"name":"","type":"INT"}],"rows":0}`,                             // empty column name
	}
	for i, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	// Duplicate table name in stream.
	dup := `{"table":"T","columns":[{"name":"A","type":"INT"}],"rows":0}` + "\n" +
		`{"table":"T","columns":[{"name":"A","type":"INT"}],"rows":0}`
	if _, err := Load(strings.NewReader(dup)); err == nil {
		t.Error("duplicate table should fail")
	}
	// Empty stream loads an empty database.
	db, err := Load(strings.NewReader(""))
	if err != nil || len(db.Names()) != 0 {
		t.Errorf("empty stream: %v, %v", db.Names(), err)
	}
}

// TestLoadTruncatedStream cuts a valid snapshot at every byte length
// short of complete: Load must fail (never silently load a partial
// database), and the error must name the offending table and the line
// where the stream broke.
func TestLoadTruncatedStream(t *testing.T) {
	full := `{"table":"Users","columns":[{"name":"ID","type":"INT"},{"name":"Name","type":"TEXT"}],"pk":["ID"],"rows":2}` + "\n" +
		`[1,"ann"]` + "\n" +
		`[2,"bob"]` + "\n"
	// Start inside the final row's JSON (dropping only the trailing
	// newline is still a complete stream).
	for cut := len(full) - 2; cut > len(full)-12; cut-- {
		_, err := Load(strings.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("cut at %d: truncated stream loaded without error", cut)
		}
		msg := err.Error()
		if !strings.Contains(msg, "Users") {
			t.Fatalf("cut at %d: error does not name the table: %v", cut, err)
		}
		if !strings.Contains(msg, "line") {
			t.Fatalf("cut at %d: error does not carry a line number: %v", cut, err)
		}
	}
	// Cutting mid-header still reports the line.
	if _, err := Load(strings.NewReader(full[:40])); err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("mid-header cut: %v", err)
	}
}

// Property: save→load→save is a fixed point (byte-identical second
// snapshot) for random row contents.
func TestSnapshotFixedPointProperty(t *testing.T) {
	f := func(names []string, gpas []float64, flags []bool) bool {
		db := NewDB()
		tbl, err := NewTable("T",
			MustSchema(NotNullCol("ID", TypeInt), Col("Name", TypeString), Col("GPA", TypeFloat), Col("Flag", TypeBool)),
			WithPrimaryKey("ID"), WithAutoIncrement("ID"))
		if err != nil {
			return false
		}
		db.MustCreate(tbl)
		for i, n := range names {
			var gpa Value
			if i < len(gpas) && !isNaN(gpas[i]) {
				gpa = gpas[i]
			}
			var flag Value
			if i < len(flags) {
				flag = flags[i]
			}
			if _, err := tbl.Insert(Row{nil, n, gpa, flag}); err != nil {
				return false
			}
		}
		var b1, b2 bytes.Buffer
		if db.Save(&b1) != nil {
			return false
		}
		db2, err := Load(bytes.NewReader(b1.Bytes()))
		if err != nil {
			return false
		}
		if db2.Save(&b2) != nil {
			return false
		}
		return bytes.Equal(b1.Bytes(), b2.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func isNaN(f float64) bool { return f != f }
