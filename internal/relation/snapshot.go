package relation

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Snapshot persistence: a database serializes to a stream of JSON lines
// — one header object per table (schema, keys, indexes) followed by its
// rows — and loads back into an equivalent database. CourseRank uses it
// to checkpoint generated deployments and to ship fixtures.

// snapshotHeader describes one table in the stream.
type snapshotHeader struct {
	Table   string       `json:"table"`
	Columns []columnJSON `json:"columns"`
	PK      []string     `json:"pk,omitempty"`
	AutoInc string       `json:"autoInc,omitempty"`
	Indexes []string     `json:"indexes,omitempty"`
	Ordered []string     `json:"ordered,omitempty"`
	Rows    int          `json:"rows"`
}

type columnJSON struct {
	Name    string `json:"name"`
	Type    string `json:"type"`
	NotNull bool   `json:"notNull,omitempty"`
}

var typeByName = map[string]Type{
	"INT": TypeInt, "FLOAT": TypeFloat, "TEXT": TypeString, "BOOL": TypeBool,
}

// Save writes the whole database to w as JSON lines, tables in sorted
// name order, rows in slot order.
func (db *DB) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, name := range db.Names() {
		t, _ := db.Table(name)
		head := headerFor(t)
		if err := enc.Encode(head); err != nil {
			return err
		}
		var encErr error
		t.Scan(func(_ int, row Row) bool {
			encErr = enc.Encode([]Value(row))
			return encErr == nil
		})
		if encErr != nil {
			return encErr
		}
	}
	return bw.Flush()
}

// tableFromHeader materializes an empty table matching a stream
// header's declared shape. Shared by snapshot Load and the durable
// backend's recovery paths (checkpoint load, CREATE-record replay).
func tableFromHeader(head snapshotHeader) (*Table, error) {
	cols := make([]Column, len(head.Columns))
	for i, c := range head.Columns {
		typ, ok := typeByName[c.Type]
		if !ok {
			return nil, fmt.Errorf("table %s: unknown type %q", head.Table, c.Type)
		}
		cols[i] = Column{Name: c.Name, Type: typ, NotNull: c.NotNull}
	}
	var opts []TableOption
	if len(head.PK) > 0 {
		opts = append(opts, WithPrimaryKey(head.PK...))
	}
	if head.AutoInc != "" {
		opts = append(opts, WithAutoIncrement(head.AutoInc))
	}
	for _, ix := range head.Indexes {
		opts = append(opts, WithIndex(ix))
	}
	for _, ix := range head.Ordered {
		opts = append(opts, WithOrderedIndex(ix))
	}
	schema, err := NewSchema(cols...)
	if err != nil {
		return nil, fmt.Errorf("table %s: %w", head.Table, err)
	}
	t, err := NewTable(head.Table, schema, opts...)
	if err != nil {
		return nil, fmt.Errorf("table %s: %w", head.Table, err)
	}
	return t, nil
}

// headerFor builds the stream header describing t. Shared by Save and
// the durable backend (checkpoint snapshots, CREATE records).
func headerFor(t *Table) snapshotHeader {
	head := snapshotHeader{
		Table:   t.Name(),
		PK:      t.PrimaryKey(),
		AutoInc: t.AutoIncrement(),
		Indexes: t.SecondaryIndexes(),
		Ordered: t.OrderedIndexes(),
		Rows:    t.Len(),
	}
	for _, c := range t.Schema().Columns() {
		head.Columns = append(head.Columns, columnJSON{Name: c.Name, Type: c.Type.String(), NotNull: c.NotNull})
	}
	return head
}

// Load reads a Save stream into a fresh database. Decode failures are
// reported with the offending table and the 1-based line number in the
// stream, so a corrupt or truncated snapshot points at where it broke.
func Load(r io.Reader) (*DB, error) {
	db := NewDB()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	line := 0
	next := func() ([]byte, bool, error) {
		if !sc.Scan() {
			return nil, false, sc.Err()
		}
		line++
		return sc.Bytes(), true, nil
	}
	for {
		buf, ok, err := next()
		if err != nil {
			return nil, fmt.Errorf("relation: snapshot line %d: %w", line+1, err)
		}
		if !ok {
			return db, nil
		}
		if len(bytes.TrimSpace(buf)) == 0 {
			continue
		}
		var head snapshotHeader
		if err := json.Unmarshal(buf, &head); err != nil {
			return nil, fmt.Errorf("relation: snapshot line %d: bad table header: %w", line, err)
		}
		t, err := tableFromHeader(head)
		if err != nil {
			return nil, fmt.Errorf("relation: snapshot line %d: %w", line, err)
		}
		if err := db.Create(t); err != nil {
			return nil, fmt.Errorf("relation: snapshot line %d: %w", line, err)
		}
		cols := t.Schema().Columns()
		for i := 0; i < head.Rows; i++ {
			buf, ok, err := next()
			if err != nil {
				return nil, fmt.Errorf("relation: snapshot line %d: table %s: %w", line+1, head.Table, err)
			}
			if !ok {
				return nil, fmt.Errorf("relation: snapshot line %d: table %s: truncated stream: got %d of %d rows", line, head.Table, i, head.Rows)
			}
			var raw []json.RawMessage
			if err := json.Unmarshal(buf, &raw); err != nil {
				return nil, fmt.Errorf("relation: snapshot line %d: table %s row %d: %w", line, head.Table, i, err)
			}
			if len(raw) != len(cols) {
				return nil, fmt.Errorf("%w: snapshot line %d: table %s row %d has %d cells", ErrArity, line, head.Table, i, len(raw))
			}
			row := make(Row, len(raw))
			for j, cell := range raw {
				v, err := decodeCell(cell, cols[j].Type)
				if err != nil {
					return nil, fmt.Errorf("relation: snapshot line %d: table %s row %d col %s: %w", line, head.Table, i, cols[j].Name, err)
				}
				row[j] = v
			}
			if _, err := t.Insert(row); err != nil {
				return nil, fmt.Errorf("relation: snapshot line %d: table %s row %d: %w", line, head.Table, i, err)
			}
		}
	}
}

// decodeCell parses one JSON cell into the canonical value for the
// column type. JSON numbers arrive as float64; INT columns restore
// int64 exactly via json.Number semantics.
func decodeCell(raw json.RawMessage, typ Type) (Value, error) {
	if string(raw) == "null" {
		return nil, nil
	}
	switch typ {
	case TypeInt:
		var n int64
		if err := json.Unmarshal(raw, &n); err != nil {
			return nil, err
		}
		return n, nil
	case TypeFloat:
		var f float64
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, err
		}
		return f, nil
	case TypeString:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, err
		}
		return s, nil
	case TypeBool:
		var b bool
		if err := json.Unmarshal(raw, &b); err != nil {
			return nil, err
		}
		return b, nil
	}
	return nil, fmt.Errorf("unknown column type")
}
