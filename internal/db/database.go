package db

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/index"
	"repro/internal/sql"
	"repro/internal/storage"
)

// Options configures a Database.
type Options struct {
	// PageSize in bytes; 0 selects storage.DefaultPageSize.
	PageSize int
	// PoolPages is the buffer-pool capacity in pages; 0 opens the
	// database without a pool, so no page access is recorded. The pool
	// only counts simulated page I/O (the engine is in-memory) for the §6
	// I/O experiments, which set a capacity.
	PoolPages int
}

// Database is the embedded engine: a catalog of tables sharing one buffer
// pool, or none. It implements exec.Catalog.
type Database struct {
	opts Options
	pool *storage.BufferPool // nil without Options.PoolPages

	mu     sync.RWMutex
	tables map[string]*Table // keyed by lower-cased name
}

// Open creates an empty in-memory database.
func Open(opts Options) *Database {
	if opts.PageSize == 0 {
		opts.PageSize = storage.DefaultPageSize
	}
	d := &Database{opts: opts, tables: make(map[string]*Table)}
	if opts.PoolPages != 0 {
		d.pool = storage.NewBufferPool(opts.PoolPages)
	}
	return d
}

// Pool returns the shared buffer pool, whose counters the I/O experiments
// read, or nil when the database has none. A nil pool's Stats are zero.
func (d *Database) Pool() *storage.BufferPool { return d.pool }

// PageSize returns the configured page size.
func (d *Database) PageSize() int { return d.opts.PageSize }

// CreateTable registers a new table for the given schema.
func (d *Database) CreateTable(s *catalog.Schema) (*Table, error) {
	return d.CreateSummarisedTable(s, nil, nil)
}

// CreateSummarisedTable is CreateTable for a relation whose heap pages keep
// a version summary through sum (storage.Summariser), so that scans can
// decide its clean pages without a per-tuple version test, and an int64
// image of the columns image names, which a clean page's WHERE reads in
// place of the tuples. A nil sum keeps neither.
func (d *Database) CreateSummarisedTable(s *catalog.Schema, sum storage.Summariser, image []storage.Imaged) (*Table, error) {
	heap, err := storage.NewHeap(s.Name, len(s.Columns), s.RowBytes(), d.opts.PageSize, d.pool)
	if err != nil {
		return nil, err
	}
	if err := heap.SetSummariser(sum, image); err != nil {
		return nil, err
	}
	t := &Table{schema: s.Clone(), heap: heap}
	if s.HasKey() {
		t.keyIdx = index.NewHash(true)
	}
	key := strings.ToLower(s.Name)
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, exists := d.tables[key]; exists {
		return nil, fmt.Errorf("db: table %q already exists", s.Name)
	}
	d.tables[key] = t
	return t, nil
}

// DropTable removes a table from the catalog.
func (d *Database) DropTable(name string) error {
	key := strings.ToLower(name)
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, exists := d.tables[key]; !exists {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	delete(d.tables, key)
	return nil
}

// RenameTable renames a catalog entry in place: the table keeps its heap,
// indexes, and tuples. The new name must be free. Core's AdoptTable uses
// this to swap a fully-loaded replacement table in under the original name.
func (d *Database) RenameTable(oldName, newName string) error {
	okey, nkey := strings.ToLower(oldName), strings.ToLower(newName)
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.tables[okey]
	if t == nil {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, oldName)
	}
	if okey != nkey {
		if _, exists := d.tables[nkey]; exists {
			return fmt.Errorf("db: table %q already exists", newName)
		}
		delete(d.tables, okey)
		d.tables[nkey] = t
	}
	t.schema.Name = newName
	return nil
}

// Table implements exec.Catalog.
func (d *Database) Table(name string) (exec.Table, error) {
	t, err := d.TableOf(name)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// TableOf returns the concrete *Table for direct (non-SQL) access.
func (d *Database) TableOf(name string) (*Table, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t := d.tables[strings.ToLower(name)]
	if t == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	return t, nil
}

// TableNames lists the catalog's tables in unspecified order.
func (d *Database) TableNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	names := make([]string, 0, len(d.tables))
	for _, t := range d.tables {
		names = append(names, t.schema.Name)
	}
	return names
}

// Query parses and runs a SELECT.
func (d *Database) Query(text string, params exec.Params) (*exec.Rows, error) {
	sel, err := sql.ParseSelect(text)
	if err != nil {
		return nil, err
	}
	return exec.Select(d, sel, params)
}

// QueryStmt runs an already-parsed SELECT (the rewrite layer uses this to
// execute transformed ASTs without reprinting).
func (d *Database) QueryStmt(sel *sql.SelectStmt, params exec.Params) (*exec.Rows, error) {
	return exec.Select(d, sel, params)
}

// Exec parses and runs a non-SELECT statement, returning the number of rows
// affected (0 for CREATE TABLE).
func (d *Database) Exec(text string, params exec.Params) (int, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return 0, err
	}
	return d.ExecStmt(stmt, params)
}

// ExecStmt runs an already-parsed statement.
func (d *Database) ExecStmt(stmt sql.Statement, params exec.Params) (int, error) {
	switch s := stmt.(type) {
	case *sql.InsertStmt:
		return exec.Insert(d, s, params)
	case *sql.UpdateStmt:
		return exec.Update(d, s, params)
	case *sql.DeleteStmt:
		return exec.Delete(d, s, params)
	case *sql.CreateTableStmt:
		schema, err := SchemaFromCreate(s)
		if err != nil {
			return 0, err
		}
		_, err = d.CreateTable(schema)
		return 0, err
	case *sql.SelectStmt:
		return 0, fmt.Errorf("db: use Query for SELECT statements")
	default:
		return 0, fmt.Errorf("db: cannot execute %T", stmt)
	}
}

// SchemaFromCreate converts a parsed CREATE TABLE into a schema.
func SchemaFromCreate(s *sql.CreateTableStmt) (*catalog.Schema, error) {
	cols := make([]catalog.Column, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = catalog.Column{Name: c.Name, Type: c.Type, Length: c.Length, Updatable: c.Updatable}
	}
	return catalog.NewSchema(s.Name, cols, s.Key...)
}
