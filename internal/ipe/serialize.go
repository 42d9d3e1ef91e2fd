package ipe

import (
	"encoding/binary"
	"fmt"
	"hash"
	"math"
)

// Binary wire format of an encoded program — the flat, position-independent
// instruction stream a fixed-function decoder consumes ("hardware-friendly
// fixed-width streams", DESIGN.md §1). All integers are little-endian.
//
//	magic   uint32  "IPE1"
//	k       uint32  raw input count
//	m       uint32  output row count
//	bits    uint8   quantization bit-width
//	symW    uint8   symbol width in bytes: 2 or 4
//	_pad    uint16  zero
//	dict    uint32  dictionary entry count
//	pairs   dict × {a symW, b symW}
//	rows    m × {
//	    terms uint16
//	    term × { code int16, value float32, n uint32, syms n×symW }
//	}
//
// Depth is not stored: it is recomputed from the pair table on load.
const magic = 0x49504531 // "IPE1"

// symbolWidth returns the fixed symbol width (2 or 4 bytes) for a program.
func (p *Program) symbolWidth() int {
	if p.NumSymbols() <= 1<<16 {
		return 2
	}
	return 4
}

// MarshalBinary serializes the program to its wire format.
func (p *Program) MarshalBinary() ([]byte, error) {
	w := wireEncoder{buf: make([]byte, 0, p.WireSize())}
	if err := w.encode(p); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// wireChunk is how many bytes a streaming wireEncoder buffers before handing
// them to its sink; wireSlack covers the one write that may cross it.
const (
	wireChunk = 4096
	wireSlack = 8
)

// wireEncoder is the one writer of the wire format. It appends to buf; with
// a sink it hands buf over and reuses it whenever wireChunk bytes have
// accumulated, so a hash (DictStore's content key) consumes the stream
// without the whole wire form ever being held.
type wireEncoder struct {
	buf  []byte
	sink hash.Hash
	symW int
}

func (w *wireEncoder) spill(atLeast int) {
	if w.sink != nil && len(w.buf) >= atLeast {
		w.sink.Write(w.buf) // a hash.Hash Write never returns an error
		w.buf = w.buf[:0]
	}
}

func (w *wireEncoder) u16(v uint16) {
	w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
	w.spill(wireChunk)
}

func (w *wireEncoder) u32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	w.spill(wireChunk)
}

func (w *wireEncoder) sym(s int32) {
	if w.symW == 2 {
		w.u16(uint16(s))
	} else {
		w.u32(uint32(s))
	}
}

// encode writes p's wire form and flushes what is left to the sink.
func (w *wireEncoder) encode(p *Program) error {
	w.symW = p.symbolWidth()
	w.u32(magic)
	w.u32(uint32(p.K))
	w.u32(uint32(p.M))
	w.u32(uint32(uint8(p.Bits)) | uint32(w.symW)<<8) // bits, symW, zero pad
	w.u32(uint32(len(p.Pairs)))
	for _, pr := range p.Pairs {
		w.sym(pr.A)
		w.sym(pr.B)
	}
	for _, row := range p.Rows {
		if len(row.Terms) > math.MaxUint16 {
			return fmt.Errorf("ipe: row has %d terms, wire format caps at %d",
				len(row.Terms), math.MaxUint16)
		}
		w.u16(uint16(len(row.Terms)))
		for _, t := range row.Terms {
			if t.Code > math.MaxInt16 || t.Code < math.MinInt16 {
				return fmt.Errorf("ipe: code %d exceeds int16 wire range", t.Code)
			}
			w.u16(uint16(int16(t.Code)))
			w.u32(math.Float32bits(t.Value))
			w.u32(uint32(len(t.Syms)))
			for _, s := range t.Syms {
				w.sym(s)
			}
		}
	}
	w.spill(0)
	return nil
}

// UnmarshalBinary parses a program from its wire format and revalidates
// its structural invariants (dependency order, symbol ranges, depth
// recomputation).
func (p *Program) UnmarshalBinary(data []byte) error {
	le := binary.LittleEndian
	off := 0
	need := func(n int) error {
		if off+n > len(data) {
			return fmt.Errorf("ipe: truncated program (need %d bytes at offset %d of %d)",
				n, off, len(data))
		}
		return nil
	}
	getU32 := func() (uint32, error) {
		if err := need(4); err != nil {
			return 0, err
		}
		v := le.Uint32(data[off:])
		off += 4
		return v, nil
	}
	mg, err := getU32()
	if err != nil {
		return err
	}
	if mg != magic {
		return fmt.Errorf("ipe: bad magic %#x", mg)
	}
	k32, err := getU32()
	if err != nil {
		return err
	}
	m32, err := getU32()
	if err != nil {
		return err
	}
	if err := need(4); err != nil {
		return err
	}
	bits := int(data[off])
	symW := int(data[off+1])
	off += 4
	if symW != 2 && symW != 4 {
		return fmt.Errorf("ipe: invalid symbol width %d", symW)
	}
	getSym := func() (int32, error) {
		if err := need(symW); err != nil {
			return 0, err
		}
		var v int32
		if symW == 2 {
			v = int32(le.Uint16(data[off:]))
		} else {
			v = int32(le.Uint32(data[off:]))
		}
		off += symW
		return v, nil
	}
	dict, err := getU32()
	if err != nil {
		return err
	}
	// Resource sanity: every row costs at least 2 bytes (its term count)
	// and every dictionary entry 2·symW bytes, so a forged header cannot
	// demand allocations the payload could never back. K is bounded by the
	// symbol width's address space.
	remaining := int64(len(data) - off)
	if int64(m32)*2 > remaining {
		return fmt.Errorf("ipe: header claims %d rows but only %d payload bytes remain", m32, remaining)
	}
	if int64(dict)*int64(2*symW) > remaining {
		return fmt.Errorf("ipe: header claims %d dictionary entries but only %d payload bytes remain", dict, remaining)
	}
	if symW == 2 && int(k32)+int(dict) > 1<<16 {
		return fmt.Errorf("ipe: %d symbols do not fit 2-byte ids", int(k32)+int(dict))
	}
	if k32 > 1<<28 {
		return fmt.Errorf("ipe: implausible input count %d", k32)
	}
	np := &Program{K: int(k32), M: int(m32), Bits: bits}
	np.Pairs = make([]Pair, dict)
	np.Depth = make([]int32, dict)
	for j := range np.Pairs {
		a, err := getSym()
		if err != nil {
			return err
		}
		b, err := getSym()
		if err != nil {
			return err
		}
		lim := int32(np.K + j)
		if a < 0 || b < 0 || a >= lim || b >= lim {
			return fmt.Errorf("ipe: pair %d out of dependency order", j)
		}
		np.Pairs[j] = Pair{A: a, B: b}
		da, db := int32(0), int32(0)
		if int(a) >= np.K {
			da = np.Depth[a-int32(np.K)]
		}
		if int(b) >= np.K {
			db = np.Depth[b-int32(np.K)]
		}
		np.Depth[j] = max(da, db) + 1
	}
	np.Rows = make([]Row, np.M)
	nsym := int32(np.NumSymbols())
	for r := range np.Rows {
		if err := need(2); err != nil {
			return err
		}
		terms := int(le.Uint16(data[off:]))
		off += 2
		if terms == 0 {
			continue
		}
		np.Rows[r].Terms = make([]Term, terms)
		for ti := 0; ti < terms; ti++ {
			if err := need(2); err != nil {
				return err
			}
			code := int32(int16(le.Uint16(data[off:])))
			off += 2
			vbits, err := getU32()
			if err != nil {
				return err
			}
			n, err := getU32()
			if err != nil {
				return err
			}
			if int64(n) > int64(len(data)) {
				return fmt.Errorf("ipe: term claims %d symbols in %d-byte stream", n, len(data))
			}
			syms := make([]int32, n)
			for si := range syms {
				s, err := getSym()
				if err != nil {
					return err
				}
				if s < 0 || s >= nsym {
					return fmt.Errorf("ipe: row %d references invalid symbol %d", r, s)
				}
				syms[si] = s
			}
			np.Rows[r].Terms[ti] = Term{
				Code:  code,
				Value: math.Float32frombits(vbits),
				Syms:  syms,
			}
		}
	}
	if off != len(data) {
		return fmt.Errorf("ipe: %d trailing bytes after program", len(data)-off)
	}
	if err := np.Validate(); err != nil {
		return err
	}
	*p = *np
	return nil
}

// WireSize returns the serialized size in bytes without materializing the
// buffer — the "model size" metric of the storage comparison (Table 5).
func (p *Program) WireSize() int64 {
	symW := int64(p.symbolWidth())
	size := int64(20) + int64(len(p.Pairs))*2*symW
	for _, row := range p.Rows {
		size += 2
		for _, t := range row.Terms {
			size += 2 + 4 + 4 + int64(len(t.Syms))*symW
		}
	}
	return size
}
