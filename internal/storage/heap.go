package storage

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
)

// RID is a record identifier: the physical address of a tuple within a heap.
type RID struct {
	Page int
	Slot int
}

func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

// ErrNotFound is the category error for "the requested tuple does not
// exist": a dangling RID, a slot concurrently freed, a key with no entry.
// Callers running over previously collected RIDs (the executor's DML paths,
// the indexed access path) may legally skip errors.Is(err, ErrNotFound);
// every other error from Get/Update/Delete is corruption and must fail the
// statement, never shrink its result.
var ErrNotFound = errors.New("storage: not found")

// ErrNoSuchTuple is returned when an RID does not name a live tuple. It
// wraps ErrNotFound, so errors.Is(err, ErrNotFound) matches it.
var ErrNoSuchTuple = fmt.Errorf("%w: no such tuple", ErrNotFound)

// page is a slotted page. All its tuples live in one value arena: slot si
// holds the w values vals[si*w:(si+1)*w], and live[si] says whether the slot
// holds a tuple. A scan therefore walks one contiguous array instead of
// chasing a pointer per tuple. Dead slots are left in place and reused by
// later inserts; they still occupy the arena but not the page's byte budget.
// The arena grows by doubling, up to the page's slot count, so a small table
// does not pay for a full page.
//
// Its latch (mu) is the paper's "short-duration lock": held only across a
// single tuple read or mutation, never until commit. Writers overwrite a
// slot in place under the write latch, so nothing outside the latch may
// keep a slice of the arena.
//
// With a Summariser the page also keeps a version summary, folded in by
// every writer under the same write latch: maxVN, the largest version any
// tuple written here has carried, and ndel, the exact number of live slots
// holding a deleted tuple. maxVN is an upper bound that is never lowered: a
// rollback or a physical delete can leave it above every live tuple, which
// only keeps the page off the clean path (cleanAt) until readers reach it.
//
// Beside the summary the page keeps an image of the heap's imaged columns
// (SetSummariser), folded in by the same writers: ints[c][si] is the int64
// payload of slot si's value at column c's offset, and nbad[c] the exact
// number of live slots whose value there is not of the column's kind (NULL
// or any other). A page whose nbad[c] is zero holds column c as one dense
// vector, so a scan reads 8 bytes per slot there instead of a cache line of
// the wide tuple; the vectors grow with the arena and cost 8 bytes per
// imaged column per slot.
//
// The same writers keep a version vector, vns[si]: the version slot si's
// tuple was written at, or math.MaxInt64 when it is a deletion. A reader at
// version vn sees slot si in its current values exactly when vns[si] <= vn
// (PageView.Current), so on a page that is not clean every slot written at
// or before the reader's version still skips the per-tuple version decision.
// It costs 8 bytes per slot and grows with the arena.
type page struct {
	mu    sync.RWMutex
	w     int             // values per tuple
	vals  []catalog.Value // len(vals) == cap(live) * w
	live  []bool          // one per slot in use; a dead slot's values are zero
	nlive int             // live slot count
	maxVN int64           // summary: largest version written, never lowered
	ndel  int             // summary: live slots whose tuple is deleted
	vns   []int64         // version vector: per slot, its version or math.MaxInt64 for a deletion, len == cap(live)
	ints  [][]int64       // image: one vector per imaged column, len == cap(live)
	nbad  []int           // image: live slots whose value is not of the column's kind
}

// Summariser reads what a page's version summary keeps of a stored tuple:
// the version that wrote it and whether it is a deletion that readers must
// still skip. A versioned relation supplies one when its heap is created
// (SetSummariser); storage never interprets a tuple itself. It runs under the
// page's write latch on every write, so it must be cheap, must not allocate
// and must not retain t.
type Summariser func(t catalog.Tuple) (vn int64, deleted bool)

// Imaged names a column a summarised heap keeps an int64 image of: its
// offset in a stored tuple and its kind, INT, DATE or BOOL, whose values
// carry their payload in Value.Int.
type Imaged struct {
	Off  int
	Kind catalog.Type
}

// enter folds t, just written to live slot si, into the summary, the
// version vector and the image.
func (pg *page) enter(h *Heap, si int, t catalog.Tuple) {
	if h.sum == nil {
		return
	}
	vn, deleted := h.sum(t)
	pg.maxVN = max(pg.maxVN, vn)
	pg.vns[si] = vn
	if deleted {
		pg.ndel++
		pg.vns[si] = math.MaxInt64
	}
	for c, im := range h.image {
		x := &t[im.Off]
		pg.ints[c][si] = x.Int()
		if x.Kind() != im.Kind {
			pg.nbad[c]++
		}
	}
}

// leave takes t, about to be overwritten or freed, out of the summary and
// the image. The version bound stays: lowering it would need a pass over the
// page. A freed slot's version vector entry is meaningless, like its image.
func (pg *page) leave(h *Heap, t catalog.Tuple) {
	if h.sum == nil {
		return
	}
	if _, deleted := h.sum(t); deleted {
		pg.ndel--
	}
	for c, im := range h.image {
		if t[im.Off].Kind() != im.Kind {
			pg.nbad[c]--
		}
	}
}

// cleanAt reports whether the summary of a summarised page shows every live
// tuple written at or before vn and none of them deleted. The caller holds
// the latch.
func (pg *page) cleanAt(vn int64) bool {
	return pg.ndel == 0 && pg.maxVN <= vn
}

// tuple returns slot si's values in the arena, capped to the slot so an
// append never reaches the next one. The caller holds the latch, and the
// slice must not outlive it.
func (pg *page) tuple(si int) catalog.Tuple {
	lo, hi := si*pg.w, (si+1)*pg.w
	return pg.vals[lo:hi:hi]
}

// addSlot appends one dead slot, doubling the arena and, on a summarised
// heap, the version vector and the image vectors, up to the heap's slots per
// page, when it is full. The caller holds the write latch and has checked the
// limit.
func (pg *page) addSlot(h *Heap) int {
	n := len(pg.live)
	if n == cap(pg.live) {
		c := min(max(2*n, 1), h.slotsPerPag)
		live := make([]bool, n, c)
		copy(live, pg.live)
		vals := make([]catalog.Value, c*pg.w)
		copy(vals, pg.vals)
		pg.live, pg.vals = live, vals
		if h.sum != nil {
			// The version vector and the image vectors share one array.
			buf := make([]int64, c*(1+len(pg.ints)))
			copy(buf, pg.vns)
			pg.vns = buf[:c:c]
			for i, col := range pg.ints {
				pg.ints[i] = buf[(i+1)*c : (i+2)*c : (i+2)*c]
				copy(pg.ints[i], col)
			}
		}
	}
	pg.live = append(pg.live, false)
	return n
}

// Heap is an unordered collection of tuples stored on slotted pages. Each
// tuple occupies rowBytes bytes of its page (fixed-width accounting, as the
// paper's Figure 3 measures schemas by declared column lengths), so a page
// holds pageSize/rowBytes tuples. Widening a schema — as the 2VNL extension
// does — therefore reduces tuples per page and increases scan I/O, an effect
// the paper calls out in §6.
type Heap struct {
	name        string
	fileID      int
	pool        *BufferPool // nil: no page access is recorded
	width       int         // values per tuple
	sum         Summariser  // nil: pages keep no summary and are never clean
	image       []Imaged    // the columns each page keeps an image of
	rowBytes    int
	slotsPerPag int

	mu    sync.RWMutex // guards pages slice growth and freePages
	pages []*page
	// freePages holds indexes of pages that had a free slot when last
	// observed; it may contain stale entries, which Insert skips.
	freePages []int

	liveCount atomic.Int64
}

var nextFileID atomic.Int64

// NewHeap creates a heap named name whose tuples each hold width values and
// occupy rowBytes bytes, attached to the given buffer pool, or to none when
// pool is nil: then no access is recorded anywhere. pageSize 0
// selects DefaultPageSize. width and rowBytes must be positive, and rowBytes
// at most pageSize. The heap refuses a tuple of any other width.
func NewHeap(name string, width, rowBytes, pageSize int, pool *BufferPool) (*Heap, error) {
	if pageSize == 0 {
		pageSize = DefaultPageSize
	}
	if width <= 0 {
		return nil, fmt.Errorf("storage: heap %q width must be positive, got %d", name, width)
	}
	if rowBytes <= 0 {
		return nil, fmt.Errorf("storage: heap %q rowBytes must be positive, got %d", name, rowBytes)
	}
	if rowBytes > pageSize {
		return nil, fmt.Errorf("storage: heap %q rowBytes %d exceeds page size %d", name, rowBytes, pageSize)
	}
	return &Heap{
		name:        name,
		fileID:      int(nextFileID.Add(1)),
		pool:        pool,
		width:       width,
		rowBytes:    rowBytes,
		slotsPerPag: pageSize / rowBytes,
	}, nil
}

// SetSummariser makes every page of the heap keep a version summary through
// sum and, with it, an image of the columns image names (see page). It must
// be called before the heap holds a tuple or sees concurrent use, so that
// every tuple it ever stores is folded in; it refuses a heap that already
// has a page.
func (h *Heap) SetSummariser(sum Summariser, image []Imaged) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.pages) > 0 {
		return fmt.Errorf("storage: heap %q already holds pages; a summariser must be set before the first insert", h.name)
	}
	h.sum, h.image = sum, slices.Clone(image)
	return nil
}

// Name returns the heap's name.
func (h *Heap) Name() string { return h.name }

// RowBytes returns the per-tuple storage footprint.
func (h *Heap) RowBytes() int { return h.rowBytes }

// SlotsPerPage returns how many tuples fit on one page.
func (h *Heap) SlotsPerPage() int { return h.slotsPerPag }

// Len returns the number of live tuples.
func (h *Heap) Len() int { return int(h.liveCount.Load()) }

// NumPages returns the number of allocated pages.
func (h *Heap) NumPages() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.pages)
}

// Bytes returns the total allocated storage in bytes (pages × page payload),
// the quantity storage-overhead experiments report.
func (h *Heap) Bytes() int {
	return h.NumPages() * h.slotsPerPag * h.rowBytes
}

func (h *Heap) getPage(i int) *page {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if i < 0 || i >= len(h.pages) {
		return nil
	}
	return h.pages[i]
}

// checkWidth refuses a tuple that does not fit the heap's slots.
func (h *Heap) checkWidth(t catalog.Tuple) error {
	if len(t) != h.width {
		return fmt.Errorf("storage: heap %q stores %d values per tuple, got %d", h.name, h.width, len(t))
	}
	return nil
}

// Insert copies t into a free slot and returns its RID. It reuses dead slots
// before allocating new pages.
func (h *Heap) Insert(t catalog.Tuple) (RID, error) {
	if err := h.checkWidth(t); err != nil {
		return RID{}, err
	}
	for {
		pi, pg := h.pageWithSpace()
		pg.mu.Lock()
		si := slices.Index(pg.live, false) // reuse a dead slot if any
		if si < 0 && len(pg.live) < h.slotsPerPag {
			si = pg.addSlot(h)
		}
		if si < 0 {
			// Page filled up between pageWithSpace and the latch; retry.
			pg.mu.Unlock()
			h.dropFree(pi)
			continue
		}
		copy(pg.tuple(si), t)
		pg.live[si] = true
		pg.nlive++
		pg.enter(h, si, t)
		pg.mu.Unlock()
		h.liveCount.Add(1)
		h.pool.Touch(PageKey{h.fileID, pi}, true)
		return RID{Page: pi, Slot: si}, nil
	}
}

// pageWithSpace returns a page believed to have a free slot, allocating one
// if necessary.
func (h *Heap) pageWithSpace() (int, *page) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.freePages) > 0 {
		pi := h.freePages[len(h.freePages)-1]
		pg := h.pages[pi]
		pg.mu.RLock()
		hasSpace := pg.nlive < h.slotsPerPag
		pg.mu.RUnlock()
		if hasSpace {
			return pi, pg
		}
		h.freePages = h.freePages[:len(h.freePages)-1]
	}
	pg := &page{w: h.width, ints: make([][]int64, len(h.image)), nbad: make([]int, len(h.image))}
	h.pages = append(h.pages, pg)
	pi := len(h.pages) - 1
	h.freePages = append(h.freePages, pi)
	return pi, pg
}

func (h *Heap) dropFree(pi int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, v := range h.freePages {
		if v == pi {
			h.freePages = append(h.freePages[:i], h.freePages[i+1:]...)
			return
		}
	}
}

func (h *Heap) noteFree(pi int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, v := range h.freePages {
		if v == pi {
			return
		}
	}
	h.freePages = append(h.freePages, pi)
}

// latched returns rid's page with its latch held — the write latch when
// write is set — if rid names a live tuple. Otherwise it holds no latch and
// returns ErrNoSuchTuple.
func (h *Heap) latched(rid RID, write bool) (*page, error) {
	pg := h.getPage(rid.Page)
	if pg == nil {
		return nil, fmt.Errorf("%w: %v in %s", ErrNoSuchTuple, rid, h.name)
	}
	if write {
		pg.mu.Lock()
	} else {
		pg.mu.RLock()
	}
	if rid.Slot >= 0 && rid.Slot < len(pg.live) && pg.live[rid.Slot] {
		return pg, nil
	}
	if write {
		pg.mu.Unlock()
	} else {
		pg.mu.RUnlock()
	}
	return nil, fmt.Errorf("%w: %v in %s", ErrNoSuchTuple, rid, h.name)
}

// Get returns a copy of the tuple at rid. The page latch is held only while
// the tuple is copied out, so callers never see a partly-modified tuple and
// never block behind a transaction (only behind an in-flight single-tuple
// mutation). Its only error is ErrNoSuchTuple, which callers that
// legitimately race with concurrent frees skip as errors.Is(err,
// ErrNotFound).
func (h *Heap) Get(rid RID) (catalog.Tuple, error) {
	pg, err := h.latched(rid, false)
	if err != nil {
		return nil, err
	}
	t := pg.tuple(rid.Slot).Clone()
	pg.mu.RUnlock()
	h.pool.Touch(PageKey{h.fileID, rid.Page}, false)
	return t, nil
}

// Peek calls fn with the stored tuple at rid under the page's read latch, so
// fn reads it in place: it must not retain or modify the tuple, nor call back
// into the heap or its pool. Unlike Get it copies nothing and records no
// access with the buffer pool; it serves a writer about to change the tuple,
// whose write records the access.
func (h *Heap) Peek(rid RID, fn func(catalog.Tuple)) error {
	pg, err := h.latched(rid, false)
	if err != nil {
		return err
	}
	fn(pg.tuple(rid.Slot))
	pg.mu.RUnlock()
	return nil
}

// Update overwrites the tuple at rid in place — the same slot on the same
// page — under the page latch. This is the in-place physical update the
// 2VNL rewrite implementation requires (§4): a scan can never return two
// physical records for the same logical tuple.
func (h *Heap) Update(rid RID, t catalog.Tuple) error {
	if err := h.checkWidth(t); err != nil {
		return err
	}
	pg, err := h.latched(rid, true)
	if err != nil {
		return err
	}
	slot := pg.tuple(rid.Slot)
	pg.leave(h, slot)
	copy(slot, t)
	pg.enter(h, rid.Slot, slot)
	pg.mu.Unlock()
	h.pool.Touch(PageKey{h.fileID, rid.Page}, true)
	return nil
}

// Delete removes the tuple at rid, freeing its slot for reuse. The slot's
// values are cleared, so a deleted tuple keeps no string reachable.
func (h *Heap) Delete(rid RID) error {
	pg, err := h.latched(rid, true)
	if err != nil {
		return err
	}
	slot := pg.tuple(rid.Slot)
	pg.leave(h, slot)
	clear(slot)
	pg.live[rid.Slot] = false
	pg.nlive--
	pg.mu.Unlock()
	h.liveCount.Add(-1)
	h.noteFree(rid.Page)
	h.pool.Touch(PageKey{h.fileID, rid.Page}, true)
	return nil
}

// block holds the tuples one page contributed to a scan: copies of the
// accepted tuples, cut as 3-index slices out of one shared backing array, and
// their RIDs; and the selection a page hook fills, reused page to page.
type block struct {
	rids   []RID
	tuples []catalog.Tuple
	vals   []catalog.Value
	sel    []int32
}

func (b *block) add(rid RID, t catalog.Tuple) {
	n := len(b.vals)
	b.vals = append(b.vals, t...)
	// Full slice expression: appending to one tuple reallocates it instead
	// of overwriting its neighbour.
	b.tuples = append(b.tuples, b.vals[n:len(b.vals):len(b.vals)])
	b.rids = append(b.rids, rid)
}

// PageView is a read-only view of one page of a summarised heap, handed to a
// Filter.Page hook under the page's read latch, for a reader at the
// filter's VN. Tuples and vectors are read in place in the page: the hook
// must not modify them, and neither the view nor anything read through it
// may outlive the hook's call. Its methods take a pointer, so that a hook
// looping over the slots reads the view in place instead of copying it.
type PageView struct {
	pg    *page
	image []Imaged
	vn    int64
	clean bool
}

// Slots returns how many slots the page has in use, live or dead: the slots
// are 0 … Slots()-1.
func (v *PageView) Slots() int { return len(v.pg.live) }

// Live reports whether slot si holds a tuple.
func (v *PageView) Live(si int) bool { return v.pg.live[si] }

// Clean reports whether the page is clean at the reader's version: its
// summary shows every live tuple written at or before it and none deleted
// (see Summariser), so Current holds for every live slot.
func (v *PageView) Clean() bool { return v.clean }

// Current reports whether live slot si holds a tuple written at or before
// the reader's version that is not a deletion: its version vector entry is
// at most the reader's version. A versioned relation reads such a tuple in
// its current values, and it exists there.
func (v *PageView) Current(si int) bool { return v.pg.vns[si] <= v.vn }

// Tuple returns slot si's tuple in place, capped to the slot.
func (v *PageView) Tuple(si int) catalog.Tuple { return v.pg.tuple(si) }

// Ints returns the page's image of the column at offset off, one payload
// per slot in use, when the heap images that offset as kind and every live
// slot holds a value of that kind there; otherwise nil. A dead slot's entry
// is meaningless.
func (v *PageView) Ints(off int, kind catalog.Type) []int64 {
	for c, im := range v.image {
		if im.Off == off && im.Kind == kind && v.pg.nbad[c] == 0 {
			return v.pg.ints[c][:len(v.pg.live)]
		}
	}
	return nil
}

// Filter is what the page walker runs against each page under its read
// latch (see ScanFilter). A filter may consume the tuples it reads in place
// and keep none — a compiled aggregate folds them into its groups, a compiled
// scan projects each into a scratch row and hands that on to its consumer (an
// exec.Sink, which a wire encoder may be) — so that the walker copies
// nothing. Whatever the filter calls runs under the latch as well: it must
// not block, must not call into the heap, and must copy anything it keeps.
type Filter struct {
	// Pred decides each live tuple of a page Page does not decide; nil keeps
	// every one.
	Pred func(catalog.Tuple) (keep bool, err error)
	// Page, when set, decides every page of a summarised heap in Pred's
	// place, clean or not: it is called once per page with a view of it at
	// VN (PageView.Clean, PageView.Current) and sel, an empty selection
	// whose capacity is what the previous call returned, and returns sel
	// with the live slots it accepts appended in ascending order. On a heap
	// without a summariser Pred decides every tuple.
	Page func(v PageView, sel []int32) ([]int32, error)
	// VN is the reader's version, at which Page's view is taken.
	VN int64
}

// fill copies page pi's live tuples that the filter accepts into b, under
// the page's read latch. With fresh set the tuples get a backing array of
// their own, sized exactly, so the caller may keep them; otherwise b's
// previous array is overwritten.
func (h *Heap) fill(b *block, pi int, pg *page, f Filter, fresh bool) (touched bool, err error) {
	b.rids, b.tuples, b.vals = b.rids[:0], b.tuples[:0], b.vals[:0]
	pg.mu.RLock()
	defer pg.mu.RUnlock()
	if pg.nlive == 0 {
		return false, nil
	}
	if fresh {
		b.vals = make([]catalog.Value, 0, pg.nlive*pg.w)
	}
	if f.Page != nil && h.sum != nil {
		v := PageView{pg: pg, image: h.image, vn: f.VN, clean: pg.cleanAt(f.VN)}
		if b.sel, err = f.Page(v, b.sel[:0]); err != nil {
			return true, err
		}
		for _, si := range b.sel {
			b.add(RID{pi, int(si)}, pg.tuple(int(si)))
		}
		return true, nil
	}
	for si, live := range pg.live {
		if !live {
			continue
		}
		t := pg.tuple(si)
		if f.Pred != nil {
			keep, err := f.Pred(t)
			if err != nil {
				return true, err
			}
			if !keep {
				continue
			}
		}
		b.add(RID{pi, si}, t)
	}
	return true, nil
}

// walk is the one page walker behind Scan and ScanFilter: page by page, fill
// a block under the read latch, release the latch, record the read, and hand
// the block to fn. It reads the page table once, under one hold of the heap
// latch, rather than once per page: concurrent scans would otherwise share
// that latch's reader count on every page. Pages are only ever appended and
// never replaced, so the slice read at the start stays valid for the pages it
// covers; pages added after it are not walked.
func (h *Heap) walk(f Filter, fresh bool, fn func([]RID, []catalog.Tuple) bool) error {
	h.mu.RLock()
	pages := h.pages[:len(h.pages):len(h.pages)]
	h.mu.RUnlock()
	var b block
	for pi, pg := range pages {
		touched, err := h.fill(&b, pi, pg, f, fresh)
		if err != nil {
			return err
		}
		if touched {
			h.pool.Touch(PageKey{h.fileID, pi}, false)
		}
		if len(b.tuples) > 0 && !fn(b.rids, b.tuples) {
			return nil
		}
	}
	return nil
}

// ScanFilter calls fn once per page with copies of the live tuples f accepts,
// and their RIDs; pages with no accepted tuple are skipped. fn runs without
// any latch held and may read or write the heap, but the slices it receives,
// and the tuples in them, are overwritten by the next page: it must copy what
// it keeps. Returning false from fn stops the scan.
//
// f.Pred runs against the stored tuple — a slice of the page's arena — and
// f.Page against a view of the page, both under the page's read latch, so
// they must not retain or modify what they read, block, or call back into
// the heap or its pool. Writers overwrite slots in place, so a tuple kept past
// the latch would later read another version, or another tuple in a reused
// slot; values copied out of it are immutable and may be kept. Either should
// allocate only when it fails or, when it keeps nothing because it consumes
// what it accepts in place, to build what it consumes into: a new group of
// an aggregate, the result rows or encoded bytes a projection is handed to.
// That consumer runs under the latch too, under the same rules. The
// selection Page fills is
// the walker's, so growing it once serves the whole scan.
// On a summarised heap f.Page, when set, decides every page, and the view it
// gets is taken under the latch its tuples are read under, so a page clean at
// f.VN stays clean, and a current slot current, for the whole call. Page
// decides every live slot of its page, and when it fails, it returns the
// error of the first failing slot in slot order, as Pred run slot by slot
// would. An error ends the scan, after the latch is released, and is
// returned as is; fn is not called for that page. A filter that has what it
// needs may end the scan that way too, with an error of its own that its
// caller reads as success (a LIMIT reached). Which slots are observed is as
// for Scan.
func (h *Heap) ScanFilter(f Filter, fn func([]RID, []catalog.Tuple) bool) error {
	return h.walk(f, false, fn)
}

// Scan calls fn for every live tuple. Each page's latch is held only while
// that page's live tuples are copied out; fn runs without any latch held, so
// it may freely read or write the heap, and it may keep the tuple. The tuples
// of one page share one backing array (each is capped to its own length, so
// appending to one never touches another): keeping one tuple keeps its page's
// copy alive. Scan observes each slot at most once; tuples inserted into
// already-visited pages during the scan are not observed (standard heap-scan
// semantics). Returning false from fn stops the scan early.
func (h *Heap) Scan(fn func(RID, catalog.Tuple) bool) {
	// walk returns only a predicate's error, and there is none.
	_ = h.walk(Filter{}, true, func(rids []RID, tuples []catalog.Tuple) bool {
		for i, t := range tuples {
			if !fn(rids[i], t) {
				return false
			}
		}
		return true
	})
}

// CheckSummary verifies every page's version summary, version vector and
// image against its live tuples: the deleted count is exact, the version
// bound is at least every live tuple's version, the version vector and each
// image vector span the arena, the version vector holds every live slot's
// version (math.MaxInt64 for a deletion) and each image vector its payload,
// and each count of values not of the column's kind is exact. It takes each
// page's read latch in turn, so each page is checked as one writer-free
// instant, while writers may change the pages it has not reached. Without a
// summariser there is nothing to check.
func (h *Heap) CheckSummary() error {
	if h.sum == nil {
		return nil
	}
	for pi := 0; pi < h.NumPages(); pi++ {
		if err := h.checkPageSummary(pi, h.getPage(pi)); err != nil {
			return err
		}
	}
	return nil
}

func (h *Heap) checkPageSummary(pi int, pg *page) error {
	pg.mu.RLock()
	defer pg.mu.RUnlock()
	ndel, nbad := 0, make([]int, len(h.image))
	if len(pg.vns) != cap(pg.live) {
		return fmt.Errorf("storage: heap %q page %d: version vector spans %d slots, the arena %d", h.name, pi, len(pg.vns), cap(pg.live))
	}
	for c := range h.image {
		if len(pg.ints[c]) != cap(pg.live) {
			return fmt.Errorf("storage: heap %q page %d: image of offset %d spans %d slots, the arena %d", h.name, pi, h.image[c].Off, len(pg.ints[c]), cap(pg.live))
		}
	}
	for si, live := range pg.live {
		if !live {
			continue
		}
		t := pg.tuple(si)
		vn, deleted := h.sum(t)
		if vn > pg.maxVN {
			return fmt.Errorf("storage: heap %q page %d: slot %d has version %d above the summary's bound %d", h.name, pi, si, vn, pg.maxVN)
		}
		want := vn
		if deleted {
			ndel++
			want = math.MaxInt64
		}
		if pg.vns[si] != want {
			return fmt.Errorf("storage: heap %q page %d: slot %d's version vector entry is %d, want %d (version %d, deleted %v)", h.name, pi, si, pg.vns[si], want, vn, deleted)
		}
		for c, im := range h.image {
			x := t[im.Off]
			if x.Kind() != im.Kind {
				nbad[c]++
			}
			if pg.ints[c][si] != x.Int() {
				return fmt.Errorf("storage: heap %q page %d: slot %d's image at offset %d is %d, the tuple holds %v", h.name, pi, si, im.Off, pg.ints[c][si], x)
			}
		}
	}
	if ndel != pg.ndel {
		return fmt.Errorf("storage: heap %q page %d: summary counts %d deleted tuples, the page holds %d", h.name, pi, pg.ndel, ndel)
	}
	for c, im := range h.image {
		if nbad[c] != pg.nbad[c] {
			return fmt.Errorf("storage: heap %q page %d: image counts %d values of another kind than %s at offset %d, the page holds %d", h.name, pi, pg.nbad[c], im.Kind, im.Off, nbad[c])
		}
	}
	return nil
}
