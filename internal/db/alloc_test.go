package db

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/storage"
)

// TestWriteAllocations pins what an in-place write allocates on a keyed
// table with no secondary index. Update reads the old key in place and the
// heap copies the new tuple into its arena, so it allocates nothing. Delete
// copies only the old key, to remove it from the key index.
func TestWriteAllocations(t *testing.T) {
	d := Open(Options{})
	tbl, err := d.CreateTable(catalog.MustSchema("kv", []catalog.Column{
		{Name: "k", Type: catalog.TypeInt, Length: 8},
		{Name: "v", Type: catalog.TypeInt, Length: 8, Updatable: true},
	}, "k"))
	if err != nil {
		t.Fatal(err)
	}
	var rids []storage.RID
	for k := int64(0); k < 200; k++ {
		rid, err := tbl.Insert(catalog.Tuple{catalog.NewInt(k), catalog.NewInt(k)})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	after := catalog.Tuple{catalog.NewInt(0), catalog.NewInt(1)}
	if n := testing.AllocsPerRun(100, func() {
		if err := tbl.Update(rids[0], after); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("Update allocates %v times, want 0", n)
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		i++
		if err := tbl.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Delete allocates %v times, want at most 1 (the old key)", n)
	}
}
