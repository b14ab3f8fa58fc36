// Package gentest is the compiled integration fixture for the ElasticRMI
// preprocessor: service_ermi.go is generated from this file by
//
//	go run ./cmd/ermi-gen -in internal/gen/gentest/service.go
//
// and checked in, so the generator's output is built and exercised against
// a live pool by the package tests.
package gentest

import (
	"sync/atomic"
	"time"

	"elasticrmi/internal/core"
)

//go:generate go run elasticrmi/cmd/ermi-gen -in service.go

// Argument/reply types of the fixture service. The group is marked
// //ermi:codec, so the generator emits binary payload codecs alongside the
// stubs: these types travel on the wire without gob.
//
//ermi:codec
type (
	// BumpArgs increments the shared counter by N.
	BumpArgs struct{ N int64 }
	// BumpReply returns the new total.
	BumpReply struct{ Total int64 }
	// PeekArgs is the empty argument of Peek.
	PeekArgs struct{}
	// TagArgs stores Value under Key (the affinity key).
	TagArgs struct{ Key, Value string }
	// TagReply names the member that served the store.
	TagReply struct{ MemberUID int64 }
	// BlobArgs carries an opaque payload; Data decodes as a zero-copy view
	// into the transport frame.
	BlobArgs struct{ Data []byte }
	// BlobReply returns the payload's length and leading byte.
	BlobReply struct {
		Len   int64
		First byte
	}
	// LeaseInfo exercises the time.Time wire shape: bare, in a slice and
	// as a map value.
	LeaseInfo struct {
		Owner   string
		Expires time.Time
		Renewed []time.Time
		ByNode  map[string]time.Time
	}
)

// Counter is the elastic interface under test.
//
//ermi:elastic
type Counter interface {
	Bump(arg BumpArgs) (BumpReply, error)
	Peek(arg PeekArgs) (BumpReply, error)
	// Tag is annotated with a key extractor, so the generated stub grows a
	// TagWithAffinity variant routing by arg.Key.
	//
	//ermi:affinity Key
	Tag(arg TagArgs) (TagReply, error)
	// Sink measures the zero-alloc payload path: its argument carries a
	// []byte view and its reply is fixed-size.
	Sink(arg BlobArgs) (BlobReply, error)
}

// Impl implements Counter with shared state; it also implements
// core.PoolSizer so the generated factory's fine-grained forwarding path is
// exercised.
type Impl struct {
	ctx   *core.MemberContext
	Delta atomic.Int64 // what ChangePoolSize returns
}

var _ Counter = (*Impl)(nil)

// NewImpl is the application constructor handed to the generated factory.
func NewImpl(ctx *core.MemberContext) (Counter, error) {
	return &Impl{ctx: ctx}, nil
}

// Bump implements Counter.
func (i *Impl) Bump(arg BumpArgs) (BumpReply, error) {
	total, err := i.ctx.State.AddInt("total", arg.N)
	return BumpReply{Total: total}, err
}

// Peek implements Counter.
func (i *Impl) Peek(PeekArgs) (BumpReply, error) {
	total, err := i.ctx.State.GetInt("total")
	return BumpReply{Total: total}, err
}

// Tag implements Counter: it records the key in shared state and reports
// which member executed, so tests can assert affinity placement.
func (i *Impl) Tag(arg TagArgs) (TagReply, error) {
	if err := i.ctx.State.PutString("tag/"+arg.Key, arg.Value); err != nil {
		return TagReply{}, err
	}
	return TagReply{MemberUID: i.ctx.UID}, nil
}

// Sink implements Counter without letting the payload view escape.
func (i *Impl) Sink(arg BlobArgs) (BlobReply, error) {
	rep := BlobReply{Len: int64(len(arg.Data))}
	if len(arg.Data) > 0 {
		rep.First = arg.Data[0]
	}
	return rep, nil
}

// ChangePoolSize implements core.PoolSizer.
func (i *Impl) ChangePoolSize() int { return int(i.Delta.Load()) }
