package main

import (
	"encoding/binary"
	"hash/crc32"
)

// Input generation. Every byte a workload sends derives from (-seed,
// workload, client, op index) through the stateless generator below, so a
// run's inputs are a pure function of its seed, and the traced pass can
// regenerate the inputs of any op for the layer probes without having kept
// them.

// stream is a splitmix64 generator; the zero-cost value type keeps input
// generation out of the allocation counts.
type stream uint64

func (s *stream) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n).
func (s *stream) intn(n int) int { return int(s.next() % uint64(n)) }

// fill overwrites b with generated bytes.
func (s *stream) fill(b []byte) {
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, s.next())
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], s.next())
		copy(b, tail[:])
	}
}

// bytes returns n fresh generated bytes.
func (s *stream) bytes(n int) []byte {
	b := make([]byte, n)
	s.fill(b)
	return b
}

// opStream is the generator for op i of one client of one workload. tag
// separates the workloads so that two of them never replay each other's
// bytes under one seed.
func opStream(seed int64, tag uint64, client int, i int64) stream {
	s := stream(uint64(seed))
	s = stream(s.next() ^ tag)
	s = stream(s.next() ^ uint64(client))
	s = stream(s.next() ^ uint64(i))
	s.next()
	return s
}

// Workload tags for opStream.
const (
	tagItinerary uint64 = iota + 1
	tagCourier
	tagScript
	tagDurable
	tagResident
	tagStormcast
	tagHotSet
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crc extends the running checksum sum over p. It is the integrity check
// the workloads put on payloads.
func crc(sum uint32, p []byte) uint32 { return crc32.Update(sum, castagnoli, p) }
