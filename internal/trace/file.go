package trace

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// A trace file (the NVBit trace-file stand-in) is fileMagic, one version
// byte, then the gob encoding of a KernelTrace. Version 1 was the headerless
// gob of the per-lane record format; it is not readable.
const (
	fileMagic   = "AWTRACE"
	fileVersion = 2
)

// MaxFileBytes caps the trace files ReadFile accepts, about 25 times the
// largest Full-scale trace file (42 MB).
const MaxFileBytes = 1 << 30

// Encode serialises a kernel trace.
func Encode(kt *KernelTrace) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(fileMagic)
	buf.WriteByte(fileVersion)
	if err := gob.NewEncoder(&buf).Encode(kt); err != nil {
		return nil, fmt.Errorf("trace: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode deserialises a trace produced by Encode and validates it, so any
// trace it returns can be replayed.
func Decode(data []byte) (*KernelTrace, error) {
	n := len(fileMagic)
	if len(data) <= n || string(data[:n]) != fileMagic {
		return nil, fmt.Errorf("trace: not a trace file, or one written before format version %d", fileVersion)
	}
	if v := data[n]; v != fileVersion {
		return nil, fmt.Errorf("trace: file format version %d, this build reads version %d", v, fileVersion)
	}
	r := bytes.NewReader(data[n+1:])
	var kt KernelTrace
	if err := gob.NewDecoder(r).Decode(&kt); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("trace: %d bytes of trailing data", r.Len())
	}
	if err := kt.Validate(); err != nil {
		return nil, err
	}
	return &kt, nil
}

// ReadFile reads and decodes a trace file of at most MaxFileBytes.
func ReadFile(path string) (*KernelTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(io.LimitReader(f, MaxFileBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > MaxFileBytes {
		return nil, fmt.Errorf("trace: %s is larger than %d bytes", path, MaxFileBytes)
	}
	return Decode(data)
}
