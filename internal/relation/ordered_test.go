package relation

import (
	"bytes"
	"reflect"
	"testing"
)

func orderedTable(t *testing.T) *Table {
	t.Helper()
	tbl := MustTable("m", MustSchema(
		NotNullCol("ID", TypeInt),
		Col("Score", TypeInt),
	), WithPrimaryKey("ID"), WithOrderedIndex("Score"))
	for i := 0; i < 10; i++ {
		var score Value
		if i != 7 { // one NULL: must never match a range
			score = int64((i * 3) % 10)
		}
		tbl.MustInsert(Row{int64(i), score})
	}
	return tbl
}

func scores(rows []Row) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[1].(int64)
	}
	return out
}

func TestOrderedRangeBounds(t *testing.T) {
	tbl := orderedTable(t)
	// Scores present: 0,3,6,9,2,5,8,(NULL),4,7 → sorted 0,2,3,4,5,6,7,8,9
	got := scores(tbl.Range("Score", &RangeBound{Value: int64(3), Inclusive: true}, &RangeBound{Value: int64(7), Inclusive: true}))
	if want := []int64{3, 4, 5, 6, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("inclusive range = %v, want %v", got, want)
	}
	got = scores(tbl.Range("Score", &RangeBound{Value: int64(3)}, &RangeBound{Value: int64(7)}))
	if want := []int64{4, 5, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("exclusive range = %v, want %v", got, want)
	}
	got = scores(tbl.Range("Score", nil, &RangeBound{Value: int64(2), Inclusive: true}))
	if want := []int64{0, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unbounded-low range = %v, want %v", got, want)
	}
	if got := tbl.Range("nope", nil, nil); got != nil {
		t.Fatalf("range over unindexed column = %v, want nil", got)
	}
	// NULL never matches, even fully unbounded.
	if got := tbl.Range("Score", nil, nil); len(got) != 9 {
		t.Fatalf("unbounded range saw %d rows, want 9 (NULL excluded)", len(got))
	}
	if n, ok := tbl.RangeCount("Score", &RangeBound{Value: int64(5), Inclusive: true}, nil); !ok || n != 5 {
		t.Fatalf("RangeCount = %d,%v want 5,true", n, ok)
	}
}

func TestOrderedIndexMaintenance(t *testing.T) {
	tbl := orderedTable(t)
	// Update moves a row across the order.
	if err := tbl.UpdateByKey([]Value{int64(0)}, func(r Row) Row { r[1] = int64(99); return r }); err != nil {
		t.Fatal(err)
	}
	got := scores(tbl.Range("Score", &RangeBound{Value: int64(90)}, nil))
	if want := []int64{99}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after update: %v, want %v", got, want)
	}
	// Delete removes entries.
	tbl.DeleteWhere(func(r Row) bool { return r[1] != nil && r[1].(int64) >= 5 })
	got = scores(tbl.Range("Score", nil, nil))
	if want := []int64{2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after delete: %v, want %v", got, want)
	}
	// Reinserted rows (reusing tombstone slots) index correctly.
	tbl.MustInsert(Row{int64(50), int64(6)})
	got = scores(tbl.Range("Score", &RangeBound{Value: int64(5)}, nil))
	if want := []int64{6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after reinsert: %v, want %v", got, want)
	}
}

func TestSchemaEpoch(t *testing.T) {
	tbl := orderedTable(t)
	e0 := tbl.SchemaEpoch()
	tbl.MustInsert(Row{int64(100), int64(1)})
	tbl.DeleteWhere(func(r Row) bool { return r[0] == int64(100) })
	if tbl.SchemaEpoch() != e0 {
		t.Fatal("row DML must not move the schema epoch")
	}
	if err := tbl.AddOrderedIndex("ID"); err != nil {
		t.Fatal(err)
	}
	if tbl.SchemaEpoch() != e0+1 {
		t.Fatalf("AddOrderedIndex should bump the epoch: %d → %d", e0, tbl.SchemaEpoch())
	}
	// Idempotent: re-adding is a no-op and does not bump again.
	if err := tbl.AddOrderedIndex("ID"); err != nil {
		t.Fatal(err)
	}
	if tbl.SchemaEpoch() != e0+1 {
		t.Fatal("re-adding an existing ordered index must not bump the epoch")
	}
	if err := tbl.AddOrderedIndex("Nope"); err == nil {
		t.Fatal("unknown column should fail")
	}
	// The freshly built index answers ranges over pre-existing rows.
	if n, ok := tbl.RangeCount("ID", &RangeBound{Value: int64(5), Inclusive: true}, nil); !ok || n != 5 {
		t.Fatalf("built-from-rows index RangeCount = %d,%v", n, ok)
	}
}

func TestOrderedIndexSnapshotRoundTrip(t *testing.T) {
	db := NewDB()
	db.MustCreate(orderedTable(t))
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lt := loaded.MustTable("m")
	if !lt.HasOrderedIndex("Score") {
		t.Fatal("ordered index lost across snapshot")
	}
	want := scores(db.MustTable("m").Range("Score", nil, nil))
	got := scores(lt.Range("Score", nil, nil))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("range after load = %v, want %v", got, want)
	}
}

// drainDesc empties a DescCursor into rows.
func drainDesc(c *DescCursor) []Row {
	var out []Row
	buf := make([]Row, 4)
	for {
		n := c.NextBatch(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

func TestDescCursorOrderAndTies(t *testing.T) {
	tbl := MustTable("d", MustSchema(
		NotNullCol("ID", TypeInt),
		Col("Score", TypeInt),
	), WithPrimaryKey("ID"), WithOrderedIndex("Score"))
	// Duplicate keys across interleaved slots, plus a NULL.
	for i, s := range []Value{int64(5), int64(2), int64(5), nil, int64(9), int64(2), int64(5)} {
		tbl.MustInsert(Row{int64(i), s})
	}
	cur, ok := tbl.NewDescCursor("Score", nil, nil)
	if !ok {
		t.Fatal("no desc cursor over the ordered column")
	}
	rows := drainDesc(cur)
	// Keys descend; within a key, slots ascend — the stable descending
	// sort's tie order. NULL is never emitted.
	var got [][2]int64
	for _, r := range rows {
		got = append(got, [2]int64{r[1].(int64), r[0].(int64)})
	}
	want := [][2]int64{{9, 4}, {5, 0}, {5, 2}, {5, 6}, {2, 1}, {2, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("desc order = %v, want %v", got, want)
	}
}

func TestDescCursorBounds(t *testing.T) {
	tbl := orderedTable(t)
	// Scores sorted: 0,2,3,4,5,6,7,8,9 (one NULL excluded).
	cur, ok := tbl.NewDescCursor("Score",
		&RangeBound{Value: int64(3), Inclusive: true},
		&RangeBound{Value: int64(7)})
	if !ok {
		t.Fatal("no desc cursor")
	}
	got := scores(drainDesc(cur))
	if want := []int64{6, 5, 4, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("bounded desc = %v, want %v", got, want)
	}
	if _, ok := tbl.NewDescCursor("nope", nil, nil); ok {
		t.Fatal("desc cursor over an unindexed column should report false")
	}
}

// TestDescCursorDMLSafety pins the concurrent-DML contract shared with
// RangeCursor: rows deleted or re-keyed after the cursor opened are
// skipped, so the emitted key sequence stays non-increasing and every
// emitted row still carries its snapshotted key.
func TestDescCursorDMLSafety(t *testing.T) {
	tbl := orderedTable(t)
	cur, ok := tbl.NewDescCursor("Score", nil, nil)
	if !ok {
		t.Fatal("no desc cursor")
	}
	buf := make([]Row, 2)
	n := cur.NextBatch(buf) // consume the top batch first
	if n != 2 || buf[0][1].(int64) != 9 {
		t.Fatalf("first batch = %v", buf[:n])
	}
	prev := buf[n-1][1].(int64)
	// Mutate beneath the open cursor: delete one mid row, move another.
	tbl.DeleteWhere(func(r Row) bool { return r[1] != nil && r[1].(int64) == 5 })
	if err := tbl.UpdateByKey([]Value{int64(1)}, func(r Row) Row { r[1] = int64(42); return r }); err != nil {
		t.Fatal(err) // slot for score 3 now carries 42
	}
	for {
		n := cur.NextBatch(buf)
		if n == 0 {
			break
		}
		for _, r := range buf[:n] {
			s := r[1].(int64)
			if s > prev {
				t.Fatalf("desc cursor emitted ascending key %d after %d", s, prev)
			}
			if s == 5 || s == 3 {
				t.Fatalf("desc cursor emitted a deleted/re-keyed row: %v", r)
			}
			prev = s
		}
	}
}

func TestScanCursorBatches(t *testing.T) {
	tbl := orderedTable(t)
	cur := tbl.NewScanCursor()
	buf := make([]Row, 3)
	var ids []int64
	for {
		n := cur.NextBatch(buf)
		if n == 0 {
			break
		}
		for _, r := range buf[:n] {
			ids = append(ids, r[0].(int64))
		}
	}
	if len(ids) != 10 || ids[0] != 0 || ids[9] != 9 {
		t.Fatalf("scan cursor ids = %v", ids)
	}
}
