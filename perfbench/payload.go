package main

//go:generate go run elasticrmi/cmd/ermi-gen -in payload.go

// Argument and reply of every remote method of the benchmark's elastic
// class. Both carry generated codecs, the recommended payload path: Value
// decodes as a zero-copy view into the transport frame.
//
//ermi:codec
type (
	// Req is one invocation. Trace is 0 unless the run is traced; it links
	// the member's spans to the client's.
	Req struct {
		Trace uint64
		Key   string
		Value []byte
		Delta int64
	}
	// Reply names the member that served the call (the scale-out probe
	// waits for a new UID), and carries the read value or counter.
	Reply struct {
		Member int64
		Value  []byte
		N      int64
		Add    int64
	}
)

// Remote method names of the elastic class.
const (
	mGet   = "Get"   // read field v/<key>
	mPut   = "Put"   // write field v/<key>
	mIncr  = "Incr"  // TryLock, read c/<key>, write c/<key>+1, release
	mAdd   = "Add"   // AddInt a/<key> by Delta
	mCheck = "Check" // read c/<key> and a/<key> for the end-of-run oracle
)
