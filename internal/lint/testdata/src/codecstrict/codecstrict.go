// Codec-strictness fixtures: marker/generator drift and view-escape
// cases.
package codecstrict

import "time"

// goodReq resolves cleanly and has its "generated" methods present (a
// stand-in for the real *_ermi.go siblings).
//
//ermi:codec
type goodReq struct {
	Key string
	Val []byte
}

func (v *goodReq) SizeERMI() int                { return 0 }
func (v *goodReq) MarshalERMI(b []byte) []byte  { return b }
func (v *goodReq) UnmarshalERMI(b []byte) error { return nil }
func (*goodReq) ERMIViews()                     {}

type inner struct {
	N int
}

// badEmbed would be rejected by the generator: the marker is a lie.
//
//ermi:codec
type badEmbed struct { // want `marked //ermi:codec but the generator would reject it: .*embedded fields are not supported`
	inner
}

//ermi:codec
type badArray struct { // want `generator would reject it: .*fixed-size arrays are not supported`
	Buf [8]byte
}

//ermi:codec
type badForeign struct { // want `generator would reject it: .*foreign type time\.Location is not supported`
	Where time.Location
}

// stale resolves fine but the generated methods are missing: the marker
// (or a field) was added without re-running the generator.
//
//ermi:codec
type stale struct { // want `marked //ermi:codec but has no generated SizeERMI method`
	N int
}

type cache struct {
	vals map[string][]byte
	last goodReq
}

// keep stores views into receiver-rooted memory that outlives the
// request.
func (c *cache) keep(r goodReq) {
	c.vals[r.Key] = r.Val // want `payload view field Val stored into long-lived memory`
	c.last = r            // want `decoded view value r stored into long-lived memory`
}

// keepCopy uses the sanctioned copy idioms; nothing aliases the frame.
func (c *cache) keepCopy(r goodReq) {
	c.vals[r.Key] = append([]byte(nil), r.Val...)
	cp := goodReq{Key: r.Key, Val: append([]byte(nil), r.Val...)}
	c.last = cp
}

// localOnly fills a function-local map: dropped with the frame, not
// long-lived.
func localOnly(r goodReq) int {
	m := make(map[string][]byte)
	m[r.Key] = r.Val
	return len(m)
}
