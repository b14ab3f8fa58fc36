package gen

// Codec generation: the `//ermi:codec` annotation selects struct types for
// which the preprocessor emits a binary payload codec — the transport.Marshaler
// and transport.Unmarshaler methods (SizeERMI / MarshalERMI / UnmarshalERMI)
// plus the ERMIViews marker for types whose decoded form aliases the payload
// buffer. Annotated argument/reply structs then skip gob entirely: the
// transport marshals them into exactly-sized arena slabs and decodes them
// with zero copies for []byte fields.
//
// The supported field shapes are the ones remote payloads actually use:
// fixed-width integers (zigzag varints on the wire), floats, bools, strings
// (copied on decode — they outlive the frame), []byte (zero-copy views),
// time.Duration, time.Time (a zero flag plus unix-nanoseconds, the
// encoding the kvstore WAL uses too; location and monotonic reading are
// not carried), locally-declared named scalar types, nested annotated
// structs, and slices/maps of any of those. Pointers, interfaces, channels,
// fixed arrays and other foreign types are rejected: such types keep the
// gob fallback.

import (
	"fmt"
	"go/ast"
	"strings"
)

// CodecMarker is the comment that selects struct types for codec generation.
const CodecMarker = "//ermi:codec"

// wireKind classifies how one field shape travels on the wire.
type wireKind int

const (
	wireBool    wireKind = iota
	wireUint             // uvarint
	wireInt              // zigzag varint
	wireFloat32          // fixed 4 bytes
	wireFloat64          // fixed 8 bytes
	wireString           // length prefix + bytes, copied on decode
	wireBytes            // length prefix + bytes, zero-copy view on decode
	wireTime             // zero flag + zigzag unix-nanos (ermic.AppendTime)
	wireStruct           // nested annotated struct
	wireSlice            // count + elements
	wireMap              // count + key/value pairs
)

// wireType is the resolved wire shape of one field (recursively, for slices
// and maps).
type wireType struct {
	kind wireKind
	// goType is the field's Go source type ("int32", "Side",
	// "time.Duration", "[]string", ...), used for casts and make().
	goType string
	elem   *wireType // wireSlice element
	key    *wireType // wireMap key
	val    *wireType // wireMap value
	viewy  bool      // decoded form may alias the input buffer
}

// codecField is one struct field of a codec type.
type codecField struct {
	name string
	typ  *wireType
}

// Codec is one annotated struct type with its resolved fields.
type Codec struct {
	Name   string
	Viewy  bool
	fields []codecField
}

// typeDecls indexes every named type declared in the parsed files, so field
// resolution can chase locally-declared named types (annotated structs and
// named scalars like `type Side int`).
type typeDecls map[string]*ast.TypeSpec

// collectCodecs walks the declarations of one parsed file, recording every
// named type and the names marked //ermi:codec.
func collectCodecs(f *ast.File, decls typeDecls, marked map[string]bool) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			decls[ts.Name.Name] = ts
			if hasMarker(CodecMarker, gd.Doc) || hasMarker(CodecMarker, ts.Doc) || hasMarker(CodecMarker, ts.Comment) {
				marked[ts.Name.Name] = true
			}
		}
	}
}

func hasMarker(marker string, cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.TrimSpace(c.Text) == marker {
			return true
		}
	}
	return false
}

// resolveCodecs turns the marked names into fully-resolved Codec values, in
// the order the names were declared (declOrder).
func resolveCodecs(decls typeDecls, marked map[string]bool, declOrder []string) ([]Codec, error) {
	r := &codecResolver{decls: decls, marked: marked, resolving: map[string]bool{}}
	var out []Codec
	for _, name := range declOrder {
		if !marked[name] {
			continue
		}
		c, err := r.codec(name)
		if err != nil {
			return nil, err
		}
		out = append(out, *c)
	}
	return out, nil
}

type codecResolver struct {
	decls     typeDecls
	marked    map[string]bool
	resolving map[string]bool // cycle guard
	done      map[string]*Codec
}

func (r *codecResolver) codec(name string) (*Codec, error) {
	if r.done == nil {
		r.done = map[string]*Codec{}
	}
	if c, ok := r.done[name]; ok {
		return c, nil
	}
	if r.resolving[name] {
		return nil, fmt.Errorf("gen: codec type %s is recursive; recursive types are not supported", name)
	}
	ts, ok := r.decls[name]
	if !ok {
		return nil, fmt.Errorf("gen: codec type %s is not declared in the parsed files", name)
	}
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return nil, fmt.Errorf("gen: %s type %s must be a struct", CodecMarker, name)
	}
	r.resolving[name] = true
	defer delete(r.resolving, name)
	c := &Codec{Name: name}
	if st.Fields != nil {
		for _, field := range st.Fields.List {
			if len(field.Names) == 0 {
				return nil, fmt.Errorf("gen: codec type %s: embedded fields are not supported", name)
			}
			wt, err := r.resolve(field.Type)
			if err != nil {
				return nil, fmt.Errorf("gen: codec type %s: field %s: %w", name, field.Names[0].Name, err)
			}
			for _, fn := range field.Names {
				c.fields = append(c.fields, codecField{name: fn.Name, typ: wt})
			}
			c.Viewy = c.Viewy || wt.viewy
		}
	}
	r.done[name] = c
	return c, nil
}

// scalarKinds maps the built-in scalar identifiers to wire kinds.
var scalarKinds = map[string]wireKind{
	"bool": wireBool,
	"uint": wireUint, "uint8": wireUint, "uint16": wireUint,
	"uint32": wireUint, "uint64": wireUint, "byte": wireUint, "uintptr": wireUint,
	"int": wireInt, "int8": wireInt, "int16": wireInt,
	"int32": wireInt, "int64": wireInt, "rune": wireInt,
	"float32": wireFloat32, "float64": wireFloat64,
	"string": wireString,
}

func (r *codecResolver) resolve(e ast.Expr) (*wireType, error) {
	switch t := e.(type) {
	case *ast.Ident:
		if k, ok := scalarKinds[t.Name]; ok {
			return &wireType{kind: k, goType: t.Name}, nil
		}
		// A locally-declared named type: either another annotated struct
		// (nested codec) or a named scalar (`type Side int`).
		ts, ok := r.decls[t.Name]
		if !ok {
			return nil, fmt.Errorf("type %s is not declared in the parsed files (external types keep the gob fallback)", t.Name)
		}
		if _, isStruct := ts.Type.(*ast.StructType); isStruct {
			if !r.marked[t.Name] {
				return nil, fmt.Errorf("nested struct %s is not marked %s", t.Name, CodecMarker)
			}
			nested, err := r.codec(t.Name)
			if err != nil {
				return nil, err
			}
			return &wireType{kind: wireStruct, goType: t.Name, viewy: nested.Viewy}, nil
		}
		under, ok := ts.Type.(*ast.Ident)
		if !ok {
			return nil, fmt.Errorf("named type %s has unsupported underlying type", t.Name)
		}
		k, ok := scalarKinds[under.Name]
		if !ok {
			return nil, fmt.Errorf("named type %s has non-scalar underlying type %s", t.Name, under.Name)
		}
		return &wireType{kind: k, goType: t.Name}, nil
	case *ast.SelectorExpr:
		if base, ok := t.X.(*ast.Ident); ok && base.Name == "time" {
			switch t.Sel.Name {
			case "Duration":
				return &wireType{kind: wireInt, goType: "time.Duration"}, nil
			case "Time":
				return &wireType{kind: wireTime, goType: "time.Time"}, nil
			}
		}
		return nil, fmt.Errorf("foreign type %s is not supported (gob fallback applies)", exprString(t))
	case *ast.ArrayType:
		if t.Len != nil {
			return nil, fmt.Errorf("fixed-size arrays are not supported")
		}
		if id, ok := t.Elt.(*ast.Ident); ok && (id.Name == "byte" || id.Name == "uint8") {
			return &wireType{kind: wireBytes, goType: "[]" + id.Name, viewy: true}, nil
		}
		elem, err := r.resolve(t.Elt)
		if err != nil {
			return nil, err
		}
		return &wireType{kind: wireSlice, goType: "[]" + elem.goType, elem: elem, viewy: elem.viewy}, nil
	case *ast.MapType:
		key, err := r.resolve(t.Key)
		if err != nil {
			return nil, err
		}
		switch key.kind {
		case wireSlice, wireMap, wireBytes, wireStruct, wireTime:
			return nil, fmt.Errorf("map key type %s is not comparable-scalar", key.goType)
		}
		val, err := r.resolve(t.Value)
		if err != nil {
			return nil, err
		}
		return &wireType{
			kind: wireMap, goType: "map[" + key.goType + "]" + val.goType,
			key: key, val: val, viewy: key.viewy || val.viewy,
		}, nil
	default:
		return nil, fmt.Errorf("unsupported type expression %T", e)
	}
}

func exprString(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return exprString(t.X) + "." + t.Sel.Name
	default:
		return fmt.Sprintf("%T", e)
	}
}

// usesTime reports whether any codec field (recursively) names a type of
// package time, so the generated file imports "time" only when needed.
func usesTime(codecs []Codec) bool {
	var walk func(*wireType) bool
	walk = func(wt *wireType) bool {
		if wt == nil {
			return false
		}
		return strings.Contains(wt.goType, "time.") || walk(wt.elem) || walk(wt.key) || walk(wt.val)
	}
	for _, c := range codecs {
		for _, f := range c.fields {
			if walk(f.typ) {
				return true
			}
		}
	}
	return false
}

// emitCodecs renders the codec methods for every annotated type as Go source
// (unformatted; Generate runs the result through format.Source).
func emitCodecs(codecs []Codec) string {
	var b strings.Builder
	for i := range codecs {
		emitCodec(&b, &codecs[i])
	}
	return b.String()
}

func emitCodec(b *strings.Builder, c *Codec) {
	e := &codecEmitter{b: b}
	fmt.Fprintf(b, "\n// SizeERMI returns the exact encoded size of v (transport.Marshaler).\n")
	fmt.Fprintf(b, "func (v *%s) SizeERMI() int {\n\tn := 0\n", c.Name)
	for _, f := range c.fields {
		e.size("v."+f.name, f.typ, 1)
	}
	fmt.Fprintf(b, "\treturn n\n}\n")

	fmt.Fprintf(b, "\n// MarshalERMI appends v's encoding to b (transport.Marshaler).\n")
	fmt.Fprintf(b, "func (v *%s) MarshalERMI(b []byte) []byte {\n", c.Name)
	for _, f := range c.fields {
		e.marshal("v."+f.name, f.typ, 1)
	}
	fmt.Fprintf(b, "\treturn b\n}\n")

	fmt.Fprintf(b, "\n// UnmarshalERMI decodes an encoding produced by MarshalERMI\n")
	fmt.Fprintf(b, "// (transport.Unmarshaler). It is total on arbitrary input.\n")
	fmt.Fprintf(b, "func (v *%s) UnmarshalERMI(b []byte) error {\n", c.Name)
	fmt.Fprintf(b, "\trest, err := v.consumeERMI(b)\n")
	fmt.Fprintf(b, "\tif err != nil {\n\t\treturn err\n\t}\n")
	fmt.Fprintf(b, "\tif len(rest) != 0 {\n\t\treturn ermic.ErrMalformed\n\t}\n")
	fmt.Fprintf(b, "\treturn nil\n}\n")

	fmt.Fprintf(b, "\n// consumeERMI decodes v from the front of b, returning the remainder\n")
	fmt.Fprintf(b, "// (shared by UnmarshalERMI and codecs that nest %s).\n", c.Name)
	fmt.Fprintf(b, "func (v *%s) consumeERMI(b []byte) ([]byte, error) {\n", c.Name)
	for _, f := range c.fields {
		e.consume("v."+f.name, f.typ, 1)
	}
	fmt.Fprintf(b, "\treturn b, nil\n}\n")

	if c.Viewy {
		fmt.Fprintf(b, "\n// ERMIViews marks %s as aliasing its decode buffer: []byte fields\n", c.Name)
		fmt.Fprintf(b, "// are zero-copy views into the payload it was decoded from.\n")
		fmt.Fprintf(b, "func (*%s) ERMIViews() {}\n", c.Name)
	}
}

// codecEmitter writes the per-field statements. depth doubles as both the
// indentation level and the loop-variable suffix, keeping nested loop
// variables distinct.
type codecEmitter struct {
	b *strings.Builder
}

func (e *codecEmitter) pf(depth int, format string, args ...interface{}) {
	e.b.WriteString(strings.Repeat("\t", depth))
	fmt.Fprintf(e.b, format, args...)
	e.b.WriteByte('\n')
}

func (e *codecEmitter) size(expr string, wt *wireType, depth int) {
	switch wt.kind {
	case wireBool:
		e.pf(depth, "n++")
	case wireUint:
		e.pf(depth, "n += ermic.SizeUvarint(uint64(%s))", expr)
	case wireInt:
		e.pf(depth, "n += ermic.SizeVarint(int64(%s))", expr)
	case wireFloat32:
		e.pf(depth, "n += 4")
	case wireFloat64:
		e.pf(depth, "n += 8")
	case wireString, wireBytes:
		e.pf(depth, "n += ermic.SizeBytes(len(%s))", expr)
	case wireTime:
		e.pf(depth, "n += ermic.SizeTime(%s)", expr)
	case wireStruct:
		e.pf(depth, "n += %s.SizeERMI()", expr)
	case wireSlice:
		i := fmt.Sprintf("i%d", depth)
		e.pf(depth, "n += ermic.SizeUvarint(uint64(len(%s)))", expr)
		if c, ok := constSize(wt.elem); ok {
			e.pf(depth, "n += %d * len(%s)", c, expr)
			return
		}
		e.pf(depth, "for %s := range %s {", i, expr)
		e.size(expr+"["+i+"]", wt.elem, depth+1)
		e.pf(depth, "}")
	case wireMap:
		k := fmt.Sprintf("k%d", depth)
		ev := fmt.Sprintf("e%d", depth)
		e.pf(depth, "n += ermic.SizeUvarint(uint64(len(%s)))", expr)
		kc, kok := constSize(wt.key)
		vc, vok := constSize(wt.val)
		if kok && vok {
			e.pf(depth, "n += %d * len(%s)", kc+vc, expr)
			return
		}
		e.pf(depth, "for %s := range %s {", k, expr)
		if kok {
			e.pf(depth+1, "n += %d", kc)
		} else {
			e.size(k, wt.key, depth+1)
		}
		if vok {
			e.pf(depth+1, "n += %d", vc)
		} else {
			e.pf(depth+1, "%s := %s[%s]", ev, expr, k)
			e.size(ev, wt.val, depth+1)
		}
		e.pf(depth, "}")
	}
}

// constSize returns the fixed encoded size of wt when every value of the
// kind occupies the same number of bytes.
func constSize(wt *wireType) (int, bool) {
	switch wt.kind {
	case wireBool:
		return 1, true
	case wireFloat32:
		return 4, true
	case wireFloat64:
		return 8, true
	}
	return 0, false
}

func (e *codecEmitter) marshal(expr string, wt *wireType, depth int) {
	switch wt.kind {
	case wireBool:
		e.pf(depth, "b = ermic.AppendBool(b, bool(%s))", expr)
	case wireUint:
		e.pf(depth, "b = ermic.AppendUvarint(b, uint64(%s))", expr)
	case wireInt:
		e.pf(depth, "b = ermic.AppendVarint(b, int64(%s))", expr)
	case wireFloat32:
		e.pf(depth, "b = ermic.AppendFloat32(b, float32(%s))", expr)
	case wireFloat64:
		e.pf(depth, "b = ermic.AppendFloat64(b, float64(%s))", expr)
	case wireString:
		e.pf(depth, "b = ermic.AppendString(b, string(%s))", expr)
	case wireBytes:
		e.pf(depth, "b = ermic.AppendBytes(b, %s)", expr)
	case wireTime:
		e.pf(depth, "b = ermic.AppendTime(b, %s)", expr)
	case wireStruct:
		e.pf(depth, "b = %s.MarshalERMI(b)", expr)
	case wireSlice:
		i := fmt.Sprintf("i%d", depth)
		e.pf(depth, "b = ermic.AppendUvarint(b, uint64(len(%s)))", expr)
		e.pf(depth, "for %s := range %s {", i, expr)
		e.marshal(expr+"["+i+"]", wt.elem, depth+1)
		e.pf(depth, "}")
	case wireMap:
		k := fmt.Sprintf("k%d", depth)
		ev := fmt.Sprintf("e%d", depth)
		e.pf(depth, "b = ermic.AppendUvarint(b, uint64(len(%s)))", expr)
		e.pf(depth, "for %s := range %s {", k, expr)
		e.pf(depth+1, "%s := %s[%s]", ev, expr, k)
		e.marshal(k, wt.key, depth+1)
		e.marshal(ev, wt.val, depth+1)
		e.pf(depth, "}")
	}
}

// consume emits statements decoding the next wire field of b into expr,
// advancing b. All error paths return (nil, err).
func (e *codecEmitter) consume(expr string, wt *wireType, depth int) {
	// scalar emits the common consume-cast-assign block.
	scalar := func(helper string) {
		e.pf(depth, "{")
		e.pf(depth+1, "x, rest, err := ermic.%s(b)", helper)
		e.pf(depth+1, "if err != nil {")
		e.pf(depth+2, "return nil, err")
		e.pf(depth+1, "}")
		e.pf(depth+1, "%s, b = %s(x), rest", expr, wt.goType)
		e.pf(depth, "}")
	}
	switch wt.kind {
	case wireBool:
		scalar("ConsumeBool")
	case wireUint:
		scalar("ConsumeUvarint")
	case wireInt:
		scalar("ConsumeVarint")
	case wireFloat32:
		scalar("ConsumeFloat32")
	case wireFloat64:
		scalar("ConsumeFloat64")
	case wireString:
		scalar("ConsumeString")
	case wireTime:
		scalar("ConsumeTime")
	case wireBytes:
		e.pf(depth, "{")
		e.pf(depth+1, "x, rest, err := ermic.ConsumeBytesView(b)")
		e.pf(depth+1, "if err != nil {")
		e.pf(depth+2, "return nil, err")
		e.pf(depth+1, "}")
		e.pf(depth+1, "%s, b = x, rest", expr)
		e.pf(depth, "}")
	case wireStruct:
		e.pf(depth, "{")
		e.pf(depth+1, "rest, err := %s.consumeERMI(b)", expr)
		e.pf(depth+1, "if err != nil {")
		e.pf(depth+2, "return nil, err")
		e.pf(depth+1, "}")
		e.pf(depth+1, "b = rest")
		e.pf(depth, "}")
	case wireSlice:
		i := fmt.Sprintf("i%d", depth)
		e.pf(depth, "{")
		e.pf(depth+1, "cnt, rest, err := ermic.ConsumeCount(b)")
		e.pf(depth+1, "if err != nil {")
		e.pf(depth+2, "return nil, err")
		e.pf(depth+1, "}")
		e.pf(depth+1, "b = rest")
		e.pf(depth+1, "%s = nil", expr)
		e.pf(depth+1, "if cnt > 0 {")
		e.pf(depth+2, "%s = make(%s, cnt)", expr, wt.goType)
		e.pf(depth+2, "for %s := 0; %s < cnt; %s++ {", i, i, i)
		e.consume(expr+"["+i+"]", wt.elem, depth+3)
		e.pf(depth+2, "}")
		e.pf(depth+1, "}")
		e.pf(depth, "}")
	case wireMap:
		i := fmt.Sprintf("i%d", depth)
		k := fmt.Sprintf("k%d", depth)
		ev := fmt.Sprintf("e%d", depth)
		m := fmt.Sprintf("m%d", depth)
		e.pf(depth, "{")
		e.pf(depth+1, "cnt, rest, err := ermic.ConsumeCount(b)")
		e.pf(depth+1, "if err != nil {")
		e.pf(depth+2, "return nil, err")
		e.pf(depth+1, "}")
		e.pf(depth+1, "b = rest")
		e.pf(depth+1, "%s = nil", expr)
		e.pf(depth+1, "if cnt > 0 {")
		// The map is filled through a local and assigned whole: the
		// decoded value under construction is not long-lived storage, and
		// a store through the receiver would read as one (codecstrict).
		e.pf(depth+2, "%s := make(%s, cnt)", m, wt.goType)
		e.pf(depth+2, "for %s := 0; %s < cnt; %s++ {", i, i, i)
		e.pf(depth+3, "var %s %s", k, wt.key.goType)
		e.pf(depth+3, "var %s %s", ev, wt.val.goType)
		e.consume(k, wt.key, depth+3)
		e.consume(ev, wt.val, depth+3)
		e.pf(depth+3, "%s[%s] = %s", m, k, ev)
		e.pf(depth+2, "}")
		e.pf(depth+2, "%s = %s", expr, m)
		e.pf(depth+1, "}")
		e.pf(depth, "}")
	}
}
