package x10rt

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
)

// This file is the binary payload codec of the wire path: raw
// little-endian encoding for the hot frame shapes (control structs,
// []byte, fixed-width numeric slices), where the wire ledger measured
// gob serialization as the dominant per-message cost. The codec is
// strictly an encoding of *values*: the mapping from payload type to
// codec is established per connection by the type-table handshake
// (typetable.go) riding frame v4 (codecframe.go), so frames carry a
// small integer where gob carries a type descriptor. Types without a
// registered codec still travel, gob-encoded, inside the same v4 frame
// (type ref 0), so the codec never restricts what a transport can
// carry.
//
// Decode fast paths may alias the frame buffer ([]byte payloads are
// sub-slices of it, never copies). That is safe because the TCP read
// loop allocates a fresh buffer per frame and hands each message to
// its handler before reading the next frame, so handlers own their
// payload.

// WireCodec is one payload type's binary codec. Encode appends the
// value's encoding to dst and returns the extended slice; Decode
// reconstructs a value from data, which it may alias (see above).
// Decode must validate data fully: it runs on bytes from the network.
type WireCodec struct {
	Name   string
	Encode func(dst []byte, v any) ([]byte, error)
	Decode func(data []byte) (any, error)
}

// codecTables is the immutable registry snapshot; registration
// replaces the whole value so the send/receive hot paths are a single
// atomic load with no lock.
type codecTables struct {
	byType map[reflect.Type]*WireCodec
	byName map[string]*WireCodec
}

var (
	codecMu  sync.Mutex
	codecReg atomic.Pointer[codecTables]
)

func init() {
	codecReg.Store(&codecTables{
		byType: map[reflect.Type]*WireCodec{},
		byName: map[string]*WireCodec{},
	})
	registerBuiltinCodecs()
}

// RegisterWireCodec registers a hand-written binary codec for the
// concrete type of sample. Like RegisterWireType it must be called
// with identical (name, type) pairs in every process of the mesh
// before any Send carrying the type over TCP; the receiving side
// resolves type-table entries by name.
func RegisterWireCodec(sample any, c *WireCodec) {
	if c == nil || c.Name == "" || c.Encode == nil || c.Decode == nil {
		panic("x10rt: RegisterWireCodec needs a name, an encoder and a decoder")
	}
	rt := reflect.TypeOf(sample)
	if rt == nil {
		panic("x10rt: RegisterWireCodec on nil sample")
	}
	codecMu.Lock()
	defer codecMu.Unlock()
	old := codecReg.Load()
	if prev, ok := old.byName[c.Name]; ok && prev != c {
		if old.byType[rt] == prev {
			// Re-registration of the same type under the same name is
			// idempotent (packages register from init and tests).
			return
		}
		panic(fmt.Sprintf("x10rt: wire codec name %q already registered", c.Name))
	}
	nt := &codecTables{
		byType: make(map[reflect.Type]*WireCodec, len(old.byType)+1),
		byName: make(map[string]*WireCodec, len(old.byName)+1),
	}
	for k, v := range old.byType {
		nt.byType[k] = v
	}
	for k, v := range old.byName {
		nt.byName[k] = v
	}
	nt.byType[rt] = c
	nt.byName[c.Name] = c
	codecReg.Store(nt)
}

// lookupWireCodec returns the codec for v's concrete type, nil when
// the type has no binary codec (the gob fallback then applies).
func lookupWireCodec(v any) *WireCodec {
	if v == nil {
		return nil
	}
	return codecReg.Load().byType[reflect.TypeOf(v)]
}

// lookupWireCodecByName resolves a type-table announcement.
func lookupWireCodecByName(name string) *WireCodec {
	return codecReg.Load().byName[name]
}

// HasWireCodec reports whether v's concrete type has a registered
// binary codec (diagnostic aid for choosing codec targets).
func HasWireCodec(v any) bool { return lookupWireCodec(v) != nil }

// appendUvarint appends x's uvarint encoding to dst.
func appendUvarint(dst []byte, x uint64) []byte {
	var b [binary.MaxVarintLen64]byte
	return append(dst, b[:binary.PutUvarint(b[:], x)]...)
}

// builtin scalar and slice codecs ------------------------------------

func registerBuiltinCodecs() {
	RegisterWireCodec([]byte(nil), &WireCodec{
		Name:   "bytes",
		Encode: func(dst []byte, v any) ([]byte, error) { return append(dst, v.([]byte)...), nil },
		// Zero copy: the returned slice aliases the frame buffer.
		Decode: func(data []byte) (any, error) { return data, nil },
	})
	RegisterWireCodec("", &WireCodec{
		Name:   "string",
		Encode: func(dst []byte, v any) ([]byte, error) { return append(dst, v.(string)...), nil },
		Decode: func(data []byte) (any, error) { return string(data), nil },
	})
	RegisterWireCodec(false, &WireCodec{
		Name: "bool",
		Encode: func(dst []byte, v any) ([]byte, error) {
			if v.(bool) {
				return append(dst, 1), nil
			}
			return append(dst, 0), nil
		},
		Decode: func(data []byte) (any, error) {
			if len(data) != 1 || data[0] > 1 {
				return nil, fmt.Errorf("%w: bad bool", ErrFrameCorrupt)
			}
			return data[0] == 1, nil
		},
	})
	RegisterWireCodec(int(0), &WireCodec{
		Name: "int",
		Encode: func(dst []byte, v any) ([]byte, error) {
			return binary.LittleEndian.AppendUint64(dst, uint64(v.(int))), nil
		},
		Decode: func(data []byte) (any, error) {
			if len(data) != 8 {
				return nil, fmt.Errorf("%w: bad int", ErrFrameCorrupt)
			}
			return int(binary.LittleEndian.Uint64(data)), nil
		},
	})
	RegisterWireCodec(int32(0), &WireCodec{
		Name: "int32",
		Encode: func(dst []byte, v any) ([]byte, error) {
			return binary.LittleEndian.AppendUint32(dst, uint32(v.(int32))), nil
		},
		Decode: func(data []byte) (any, error) {
			if len(data) != 4 {
				return nil, fmt.Errorf("%w: bad int32", ErrFrameCorrupt)
			}
			return int32(binary.LittleEndian.Uint32(data)), nil
		},
	})
	RegisterWireCodec(int64(0), &WireCodec{
		Name: "int64",
		Encode: func(dst []byte, v any) ([]byte, error) {
			return binary.LittleEndian.AppendUint64(dst, uint64(v.(int64))), nil
		},
		Decode: func(data []byte) (any, error) {
			if len(data) != 8 {
				return nil, fmt.Errorf("%w: bad int64", ErrFrameCorrupt)
			}
			return int64(binary.LittleEndian.Uint64(data)), nil
		},
	})
	RegisterWireCodec(uint32(0), &WireCodec{
		Name: "uint32",
		Encode: func(dst []byte, v any) ([]byte, error) {
			return binary.LittleEndian.AppendUint32(dst, v.(uint32)), nil
		},
		Decode: func(data []byte) (any, error) {
			if len(data) != 4 {
				return nil, fmt.Errorf("%w: bad uint32", ErrFrameCorrupt)
			}
			return binary.LittleEndian.Uint32(data), nil
		},
	})
	RegisterWireCodec(uint64(0), &WireCodec{
		Name: "uint64",
		Encode: func(dst []byte, v any) ([]byte, error) {
			return binary.LittleEndian.AppendUint64(dst, v.(uint64)), nil
		},
		Decode: func(data []byte) (any, error) {
			if len(data) != 8 {
				return nil, fmt.Errorf("%w: bad uint64", ErrFrameCorrupt)
			}
			return binary.LittleEndian.Uint64(data), nil
		},
	})
	RegisterWireCodec(float64(0), &WireCodec{
		Name: "float64",
		Encode: func(dst []byte, v any) ([]byte, error) {
			return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.(float64))), nil
		},
		Decode: func(data []byte) (any, error) {
			if len(data) != 8 {
				return nil, fmt.Errorf("%w: bad float64", ErrFrameCorrupt)
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(data)), nil
		},
	})
	registerSliceCodec[uint64]("[]uint64")
	registerSliceCodec[int64]("[]int64")
	registerSliceCodec[uint32]("[]uint32")
	registerSliceCodec[int32]("[]int32")
	registerSliceCodec[float64]("[]float64")
	registerSliceCodec[float32]("[]float32")
	registerSliceCodec[uint16]("[]uint16")
	registerSliceCodec[int16]("[]int16")
}

// fixedWidth is the element constraint of the fixed-width-slice fast
// path: every element encodes as its in-memory width, little-endian.
type fixedWidth interface {
	~int16 | ~uint16 | ~int32 | ~uint32 | ~int64 | ~uint64 | ~float32 | ~float64
}

// registerSliceCodec installs the fixed-width-slice fast path for []T.
func registerSliceCodec[T fixedWidth](name string) {
	var z T
	size := fixedWidthSize(z)
	RegisterWireCodec([]T(nil), &WireCodec{
		Name: name,
		Encode: func(dst []byte, v any) ([]byte, error) {
			return appendFixedSlice(dst, v.([]T)), nil
		},
		Decode: func(data []byte) (any, error) {
			if len(data)%size != 0 {
				return nil, fmt.Errorf("%w: %s payload %d not a multiple of %d",
					ErrFrameCorrupt, name, len(data), size)
			}
			return decodeFixedSlice[T](data), nil
		},
	})
}

func fixedWidthSize[T fixedWidth](T) int {
	var z T
	switch any(z).(type) {
	case int16, uint16:
		return 2
	case int32, uint32, float32:
		return 4
	default:
		return 8
	}
}

func appendFixedSlice[T fixedWidth](dst []byte, s []T) []byte {
	var z T
	switch fixedWidthSize(z) {
	case 2:
		for _, e := range s {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(toBits(e)))
		}
	case 4:
		for _, e := range s {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(toBits(e)))
		}
	default:
		for _, e := range s {
			dst = binary.LittleEndian.AppendUint64(dst, toBits(e))
		}
	}
	return dst
}

func decodeFixedSlice[T fixedWidth](data []byte) []T {
	var z T
	size := fixedWidthSize(z)
	out := make([]T, len(data)/size)
	switch size {
	case 2:
		for i := range out {
			out[i] = fromBits[T](uint64(binary.LittleEndian.Uint16(data[i*2:])))
		}
	case 4:
		for i := range out {
			out[i] = fromBits[T](uint64(binary.LittleEndian.Uint32(data[i*4:])))
		}
	default:
		for i := range out {
			out[i] = fromBits[T](binary.LittleEndian.Uint64(data[i*8:]))
		}
	}
	return out
}

// toBits/fromBits move a fixed-width value through its bit pattern so
// floats round-trip exactly (a numeric conversion would not).
func toBits[T fixedWidth](v T) uint64 {
	switch x := any(v).(type) {
	case float32:
		return uint64(math.Float32bits(x))
	case float64:
		return math.Float64bits(x)
	case int16:
		return uint64(uint16(x))
	case uint16:
		return uint64(x)
	case int32:
		return uint64(uint32(x))
	case uint32:
		return uint64(x)
	case int64:
		return uint64(x)
	default:
		return uint64(any(v).(uint64))
	}
}

func fromBits[T fixedWidth](b uint64) T {
	var z T
	switch any(z).(type) {
	case float32:
		return any(math.Float32frombits(uint32(b))).(T)
	case float64:
		return any(math.Float64frombits(b)).(T)
	case int16:
		return any(int16(uint16(b))).(T)
	case uint16:
		return any(uint16(b)).(T)
	case int32:
		return any(int32(uint32(b))).(T)
	case uint32:
		return any(uint32(b)).(T)
	case int64:
		return any(int64(b)).(T)
	default:
		return any(b).(T)
	}
}

// reflection-built struct codecs --------------------------------------

// RegisterBinaryStruct builds and registers a binary codec for a flat
// struct type using a compiled reflection plan: exported fields of
// bool, integer, float, string, []byte, or fixed-width numeric slice
// type, encoded in declaration order (variable-length fields carry a
// uvarint length prefix; an empty slice decodes as nil, as under gob).
// RegisterWireType calls it first, so flat payloads leave gob without
// a hand-written codec; truly hot types should implement one by hand
// (see harness/transport.go). Returns an error for unsupported shapes
// (nested structs, maps, pointers, interfaces, unexported fields,
// unnamed types) — the caller then stays on the gob fallback.
func RegisterBinaryStruct(sample any) error {
	rt := reflect.TypeOf(sample)
	if rt == nil || rt.Kind() != reflect.Struct || rt.Name() == "" {
		return fmt.Errorf("x10rt: RegisterBinaryStruct wants a named struct, got %T", sample)
	}
	plan, err := buildStructPlan(rt)
	if err != nil {
		return err
	}
	name := "struct:" + rt.PkgPath() + "." + rt.Name()
	RegisterWireCodec(sample, &WireCodec{
		Name:   name,
		Encode: plan.encode,
		Decode: plan.decode,
	})
	return nil
}

type structPlan struct {
	typ    reflect.Type
	fields []fieldPlan
}

type fieldPlan struct {
	idx  int
	kind reflect.Kind
	// elem is set for slice fields: the element kind and width.
	elem     reflect.Kind
	elemSize int
	typ      reflect.Type
}

func buildStructPlan(rt reflect.Type) (*structPlan, error) {
	p := &structPlan{typ: rt}
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if !f.IsExported() {
			return nil, fmt.Errorf("x10rt: %s.%s is unexported", rt, f.Name)
		}
		fp := fieldPlan{idx: i, kind: f.Type.Kind(), typ: f.Type}
		switch f.Type.Kind() {
		case reflect.Bool, reflect.String,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64:
		case reflect.Slice:
			ek := f.Type.Elem().Kind()
			switch ek {
			case reflect.Uint8:
				fp.elemSize = 1
			case reflect.Int16, reflect.Uint16:
				fp.elemSize = 2
			case reflect.Int32, reflect.Uint32, reflect.Float32:
				fp.elemSize = 4
			case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64, reflect.Float64:
				fp.elemSize = 8
			default:
				return nil, fmt.Errorf("x10rt: %s.%s: unsupported slice elem %s", rt, f.Name, ek)
			}
			fp.elem = ek
		default:
			return nil, fmt.Errorf("x10rt: %s.%s: unsupported kind %s", rt, f.Name, f.Type.Kind())
		}
		p.fields = append(p.fields, fp)
	}
	return p, nil
}

func (p *structPlan) encode(dst []byte, v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if rv.Type() != p.typ {
		return dst, fmt.Errorf("x10rt: codec for %s got %T", p.typ, v)
	}
	for _, f := range p.fields {
		fv := rv.Field(f.idx)
		switch f.kind {
		case reflect.Bool:
			if fv.Bool() {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(fv.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			dst = binary.LittleEndian.AppendUint64(dst, fv.Uint())
		case reflect.Float32, reflect.Float64:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(fv.Float()))
		case reflect.String:
			s := fv.String()
			dst = appendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		case reflect.Slice:
			n := fv.Len()
			dst = appendUvarint(dst, uint64(n))
			for i := 0; i < n; i++ {
				e := fv.Index(i)
				var bits uint64
				switch f.elem {
				case reflect.Float32:
					bits = uint64(math.Float32bits(float32(e.Float())))
				case reflect.Float64:
					bits = math.Float64bits(e.Float())
				case reflect.Int16, reflect.Int32, reflect.Int, reflect.Int64:
					bits = uint64(e.Int())
				default:
					bits = e.Uint()
				}
				switch f.elemSize {
				case 1:
					dst = append(dst, byte(bits))
				case 2:
					dst = binary.LittleEndian.AppendUint16(dst, uint16(bits))
				case 4:
					dst = binary.LittleEndian.AppendUint32(dst, uint32(bits))
				default:
					dst = binary.LittleEndian.AppendUint64(dst, bits)
				}
			}
		}
	}
	return dst, nil
}

func (p *structPlan) decode(data []byte) (any, error) {
	rv := reflect.New(p.typ).Elem()
	for _, f := range p.fields {
		fv := rv.Field(f.idx)
		switch f.kind {
		case reflect.Bool:
			if len(data) < 1 || data[0] > 1 {
				return nil, fmt.Errorf("%w: struct bool", ErrFrameCorrupt)
			}
			fv.SetBool(data[0] == 1)
			data = data[1:]
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			if len(data) < 8 {
				return nil, fmt.Errorf("%w: struct int", ErrFrameCorrupt)
			}
			x := int64(binary.LittleEndian.Uint64(data))
			if fv.OverflowInt(x) {
				return nil, fmt.Errorf("%w: struct int overflow", ErrFrameCorrupt)
			}
			fv.SetInt(x)
			data = data[8:]
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			if len(data) < 8 {
				return nil, fmt.Errorf("%w: struct uint", ErrFrameCorrupt)
			}
			x := binary.LittleEndian.Uint64(data)
			if fv.OverflowUint(x) {
				return nil, fmt.Errorf("%w: struct uint overflow", ErrFrameCorrupt)
			}
			fv.SetUint(x)
			data = data[8:]
		case reflect.Float32, reflect.Float64:
			if len(data) < 8 {
				return nil, fmt.Errorf("%w: struct float", ErrFrameCorrupt)
			}
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			if f.kind == reflect.Float32 && !math.IsNaN(x) && !math.IsInf(x, 0) &&
				math.Abs(x) > math.MaxFloat32 {
				return nil, fmt.Errorf("%w: struct float32 overflow", ErrFrameCorrupt)
			}
			fv.SetFloat(x)
			data = data[8:]
		case reflect.String:
			n, c := binary.Uvarint(data)
			if c <= 0 || n > uint64(len(data)-c) {
				return nil, fmt.Errorf("%w: struct string length", ErrFrameCorrupt)
			}
			fv.SetString(string(data[c : c+int(n)]))
			data = data[c+int(n):]
		case reflect.Slice:
			n, c := binary.Uvarint(data)
			if c <= 0 || n > uint64(len(data)-c)/uint64(f.elemSize) {
				return nil, fmt.Errorf("%w: struct slice length", ErrFrameCorrupt)
			}
			data = data[c:]
			if n == 0 {
				continue
			}
			sl := reflect.MakeSlice(f.typ, int(n), int(n))
			for i := 0; i < int(n); i++ {
				var bits uint64
				switch f.elemSize {
				case 1:
					bits = uint64(data[0])
				case 2:
					bits = uint64(binary.LittleEndian.Uint16(data))
				case 4:
					bits = uint64(binary.LittleEndian.Uint32(data))
				default:
					bits = binary.LittleEndian.Uint64(data)
				}
				data = data[f.elemSize:]
				e := sl.Index(i)
				switch f.elem {
				case reflect.Float32:
					e.SetFloat(float64(math.Float32frombits(uint32(bits))))
				case reflect.Float64:
					e.SetFloat(math.Float64frombits(bits))
				case reflect.Int16:
					e.SetInt(int64(int16(uint16(bits))))
				case reflect.Int32:
					e.SetInt(int64(int32(uint32(bits))))
				case reflect.Int, reflect.Int64:
					e.SetInt(int64(bits))
				default:
					e.SetUint(bits)
				}
			}
			fv.Set(sl)
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing struct bytes", ErrFrameCorrupt, len(data))
	}
	return rv.Interface(), nil
}
