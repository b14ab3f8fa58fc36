// Code generated by ermi-gen. DO NOT EDIT.
//
// Stubs, skeletons and payload codecs for payload.go — the output the
// ElasticRMI preprocessor produces for elastic classes (§2.3 of "Elastic
// Remote Methods", MIDDLEWARE 2013).

package main

import (
	"elasticrmi/internal/ermic"
)

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *Req) SizeERMI() int {
	n := 0
	n += ermic.SizeUvarint(uint64(v.Trace))
	n += ermic.SizeBytes(len(v.Key))
	n += ermic.SizeBytes(len(v.Value))
	n += ermic.SizeVarint(int64(v.Delta))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *Req) MarshalERMI(b []byte) []byte {
	b = ermic.AppendUvarint(b, uint64(v.Trace))
	b = ermic.AppendString(b, string(v.Key))
	b = ermic.AppendBytes(b, v.Value)
	b = ermic.AppendVarint(b, int64(v.Delta))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *Req) UnmarshalERMI(b []byte) error {
	rest, err := v.consumeERMI(b)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return ermic.ErrMalformed
	}
	return nil
}

// consumeERMI decodes v from the front of b, returning the remainder
// (shared by UnmarshalERMI and codecs that nest Req).
func (v *Req) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeUvarint(b)
		if err != nil {
			return nil, err
		}
		v.Trace, b = uint64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeString(b)
		if err != nil {
			return nil, err
		}
		v.Key, b = string(x), rest
	}
	{
		x, rest, err := ermic.ConsumeBytesView(b)
		if err != nil {
			return nil, err
		}
		v.Value, b = x, rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Delta, b = int64(x), rest
	}
	return b, nil
}

// ERMIViews marks Req as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*Req) ERMIViews() {}

// SizeERMI returns the exact encoded size of v (transport.Marshaler).
func (v *Reply) SizeERMI() int {
	n := 0
	n += ermic.SizeVarint(int64(v.Member))
	n += ermic.SizeBytes(len(v.Value))
	n += ermic.SizeVarint(int64(v.N))
	n += ermic.SizeVarint(int64(v.Add))
	return n
}

// MarshalERMI appends v's encoding to b (transport.Marshaler).
func (v *Reply) MarshalERMI(b []byte) []byte {
	b = ermic.AppendVarint(b, int64(v.Member))
	b = ermic.AppendBytes(b, v.Value)
	b = ermic.AppendVarint(b, int64(v.N))
	b = ermic.AppendVarint(b, int64(v.Add))
	return b
}

// UnmarshalERMI decodes an encoding produced by MarshalERMI
// (transport.Unmarshaler). It is total on arbitrary input.
func (v *Reply) UnmarshalERMI(b []byte) error {
	rest, err := v.consumeERMI(b)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return ermic.ErrMalformed
	}
	return nil
}

// consumeERMI decodes v from the front of b, returning the remainder
// (shared by UnmarshalERMI and codecs that nest Reply).
func (v *Reply) consumeERMI(b []byte) ([]byte, error) {
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Member, b = int64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeBytesView(b)
		if err != nil {
			return nil, err
		}
		v.Value, b = x, rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.N, b = int64(x), rest
	}
	{
		x, rest, err := ermic.ConsumeVarint(b)
		if err != nil {
			return nil, err
		}
		v.Add, b = int64(x), rest
	}
	return b, nil
}

// ERMIViews marks Reply as aliasing its decode buffer: []byte fields
// are zero-copy views into the payload it was decoded from.
func (*Reply) ERMIViews() {}
