// Page-image serialization for the heap's backing-file mirror. The format
// is deliberately local to this package (storage must not depend on the
// WAL's wire format): one uvarint slot count, then per slot a liveness
// byte and, for live slots, the tuple. The mirror is redo state only —
// recovery rebuilds heaps from the log — so the format needs determinism,
// not evolution headroom.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/catalog"
)

// Value wire kinds for page images.
const (
	pfNull byte = iota
	pfInt
	pfFloat
	pfString
	pfBool
	pfDate
)

func appendPageValue(buf []byte, v catalog.Value) []byte {
	switch v.Kind() {
	case catalog.TypeNull:
		return append(buf, pfNull)
	case catalog.TypeInt:
		buf = append(buf, pfInt)
		return binary.AppendVarint(buf, v.Int())
	case catalog.TypeFloat:
		buf = append(buf, pfFloat)
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
	case catalog.TypeString:
		buf = append(buf, pfString)
		buf = binary.AppendUvarint(buf, uint64(len(v.Str())))
		return append(buf, v.Str()...)
	case catalog.TypeBool:
		b := byte(0)
		if v.Bool() {
			b = 1
		}
		return append(buf, pfBool, b)
	case catalog.TypeDate:
		buf = append(buf, pfDate)
		return binary.AppendVarint(buf, v.Days())
	default:
		panic(fmt.Sprintf("storage: cannot encode value kind %v", v.Kind()))
	}
}

func readPageValue(buf []byte) (catalog.Value, []byte, error) {
	if len(buf) == 0 {
		return catalog.Null, nil, fmt.Errorf("storage: truncated page value")
	}
	kind := buf[0]
	buf = buf[1:]
	switch kind {
	case pfNull:
		return catalog.Null, buf, nil
	case pfInt:
		n, sz := binary.Varint(buf)
		if sz <= 0 {
			return catalog.Null, nil, fmt.Errorf("storage: bad page varint")
		}
		return catalog.NewInt(n), buf[sz:], nil
	case pfFloat:
		if len(buf) < 8 {
			return catalog.Null, nil, fmt.Errorf("storage: truncated page float")
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(buf))
		return catalog.NewFloat(f), buf[8:], nil
	case pfString:
		n, sz := binary.Uvarint(buf)
		if sz <= 0 || uint64(len(buf[sz:])) < n {
			return catalog.Null, nil, fmt.Errorf("storage: truncated page string")
		}
		s := string(buf[sz : sz+int(n)])
		return catalog.NewString(s), buf[sz+int(n):], nil
	case pfBool:
		if len(buf) < 1 {
			return catalog.Null, nil, fmt.Errorf("storage: truncated page bool")
		}
		return catalog.NewBool(buf[0] != 0), buf[1:], nil
	case pfDate:
		n, sz := binary.Varint(buf)
		if sz <= 0 {
			return catalog.Null, nil, fmt.Errorf("storage: bad page date")
		}
		return catalog.NewDate(n), buf[sz:], nil
	default:
		return catalog.Null, nil, fmt.Errorf("storage: unknown page value kind %d", kind)
	}
}

// encodePage serializes a page's slots from its arena. The caller holds the
// page latch (read side suffices).
func encodePage(pg *page) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(pg.live)))
	for si, live := range pg.live {
		if !live {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(pg.w))
		for _, v := range pg.tuple(si) {
			buf = appendPageValue(buf, v)
		}
	}
	return buf
}

// decodePage parses an image produced by encodePage into a page of w values
// per tuple, refusing a tuple of any other width, and rebuilds its version
// summary through sum (the image does not carry it). Used by tests and
// offline inspection; live recovery replays the WAL instead.
func decodePage(buf []byte, w int, sum Summariser) (*page, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || w <= 0 || n*uint64(w) > 1<<24 {
		return nil, fmt.Errorf("storage: bad page slot count")
	}
	buf = buf[sz:]
	pg := &page{w: w, vals: make([]catalog.Value, int(n)*w), live: make([]bool, n)}
	for si := range pg.live {
		if len(buf) < 1 {
			return nil, fmt.Errorf("storage: truncated page slot")
		}
		live := buf[0] != 0
		buf = buf[1:]
		if !live {
			continue
		}
		arity, asz := binary.Uvarint(buf)
		if asz <= 0 || arity != uint64(w) {
			return nil, fmt.Errorf("storage: page tuple arity %d, want %d", arity, w)
		}
		buf = buf[asz:]
		t := pg.tuple(si)
		var err error
		for j := range t {
			t[j], buf, err = readPageValue(buf)
			if err != nil {
				return nil, err
			}
		}
		pg.live[si] = true
		pg.nlive++
		pg.enter(sum, t)
	}
	return pg, nil
}
