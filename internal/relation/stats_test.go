package relation

import "testing"

func statsTable(t *testing.T) *Table {
	t.Helper()
	tbl := MustTable("People",
		MustSchema(
			NotNullCol("ID", TypeInt),
			NotNullCol("Dep", TypeString),
			Col("Age", TypeInt),
		), WithPrimaryKey("ID"), WithIndex("Dep"))
	for i, dep := range []string{"cs", "cs", "ee", "me", "ee", "cs"} {
		tbl.MustInsert(Row{int64(i + 1), dep, int64(20 + i)})
	}
	return tbl
}

func TestStatsIncremental(t *testing.T) {
	tbl := statsTable(t)
	st := tbl.Stats()
	if st.Rows != 6 {
		t.Fatalf("Rows = %d, want 6", st.Rows)
	}
	if d, ok := st.DistinctOf("Dep"); !ok || d != 3 {
		t.Fatalf("DistinctOf(Dep) = %d,%v, want 3,true", d, ok)
	}
	if d, ok := st.DistinctOf("ID"); !ok || d != 6 {
		t.Fatalf("DistinctOf(ID) = %d,%v, want 6,true (pk)", d, ok)
	}
	if _, ok := st.DistinctOf("Age"); ok {
		t.Fatal("Age has no index, should have no distinct estimate")
	}

	// Statistics track mutations without rescans.
	tbl.DeleteWhere(func(r Row) bool { return r[1] == "me" })
	st = tbl.Stats()
	if st.Rows != 5 {
		t.Fatalf("Rows after delete = %d, want 5", st.Rows)
	}
	if d, _ := st.DistinctOf("Dep"); d != 2 {
		t.Fatalf("DistinctOf(Dep) after delete = %d, want 2", d)
	}
	tbl.MustInsert(Row{int64(9), "bio", int64(30)})
	if d, _ := tbl.Stats().DistinctOf("Dep"); d != 3 {
		t.Fatalf("DistinctOf(Dep) after insert = %d, want 3", d)
	}
}

func TestStatsIgnoreNullBucket(t *testing.T) {
	tbl := MustTable("Opt",
		MustSchema(NotNullCol("ID", TypeInt), Col("Tag", TypeString)),
		WithPrimaryKey("ID"), WithIndex("Tag"))
	tbl.MustInsert(Row{int64(1), "a"})
	tbl.MustInsert(Row{int64(2), nil})
	tbl.MustInsert(Row{int64(3), nil})
	if d, _ := tbl.Stats().DistinctOf("Tag"); d != 1 {
		t.Fatalf("DistinctOf(Tag) = %d, want 1 (NULLs are not values)", d)
	}
}

func TestStatsSelectivity(t *testing.T) {
	tbl := statsTable(t)
	st := tbl.Stats()
	if got := st.Selectivity("Dep"); got != 2 {
		t.Fatalf("Selectivity(Dep) = %v, want 2 (6 rows / 3 distinct)", got)
	}
	if got := st.Selectivity("Age"); got != 2 {
		t.Fatalf("Selectivity(Age) = %v, want 6/3 fallback", got)
	}
}

func TestVersionBumps(t *testing.T) {
	tbl := statsTable(t)
	v0 := tbl.Version()
	tbl.MustInsert(Row{int64(7), "cs", nil})
	if tbl.Version() <= v0 {
		t.Fatal("insert should bump version")
	}
	v1 := tbl.Version()
	if _, err := tbl.UpdateWhere(func(r Row) bool { return r[0] == int64(7) }, func(r Row) Row {
		r[2] = int64(33)
		return r
	}); err != nil {
		t.Fatal(err)
	}
	if tbl.Version() <= v1 {
		t.Fatal("update should bump version")
	}
	v2 := tbl.Version()
	tbl.DeleteWhere(func(r Row) bool { return r[0] == int64(7) })
	if tbl.Version() <= v2 {
		t.Fatal("delete should bump version")
	}
	v3 := tbl.Version()
	tbl.Scan(func(_ int, _ Row) bool { return true })
	if tbl.Version() != v3 {
		t.Fatal("reads must not bump version")
	}
}

func TestLookupMany(t *testing.T) {
	tbl := statsTable(t)
	rows := tbl.LookupMany("Dep", []Value{"cs", "me", nil, "nope"})
	if len(rows) != 4 {
		t.Fatalf("LookupMany = %d rows, want 4 (3 cs + 1 me; NULL and absent match nothing)", len(rows))
	}
	// Slot order, deduplicated even when keys repeat.
	rows = tbl.LookupMany("Dep", []Value{"ee", "ee"})
	if len(rows) != 2 || rows[0][0] != int64(3) || rows[1][0] != int64(5) {
		t.Fatalf("LookupMany dedup/order broken: %v", rows)
	}
	// Unindexed column degrades to one scan with identical semantics.
	rows = tbl.LookupMany("Age", []Value{int64(21), int64(24)})
	if len(rows) != 2 {
		t.Fatalf("unindexed LookupMany = %d rows, want 2", len(rows))
	}
	if got := tbl.LookupMany("Dep", nil); got != nil {
		t.Fatalf("empty key set should return nil, got %v", got)
	}
}

func TestGetMany(t *testing.T) {
	tbl := statsTable(t)
	rows := tbl.GetMany([]Value{int64(5)}, []Value{int64(99)}, []Value{int64(2)}, []Value{int64(5)})
	if len(rows) != 2 {
		t.Fatalf("GetMany = %d rows, want 2 (missing keys skipped, dups collapsed)", len(rows))
	}
	if rows[0][0] != int64(2) || rows[1][0] != int64(5) {
		t.Fatalf("GetMany should return slot order regardless of key order: %v", rows)
	}
	// Returned rows are copies: mutating them must not corrupt storage.
	rows[0][1] = "hacked"
	if fresh, _ := tbl.Get(int64(2)); fresh[1] != "cs" {
		t.Fatal("GetMany must return clones")
	}
}
