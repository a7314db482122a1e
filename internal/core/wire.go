package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/folder"
)

// Meet wire format (kind "meet2"): the briefcase travels in the
// content-addressed delta format (folder/delta.go), and the response
// carries a one-byte tag so the callee can report unresolvable refs instead
// of executing:
//
//	request  := agentLen:uvarint agent originLen:uvarint origin briefcaseΔ
//	response := replyBriefcase briefcaseΔ
//	          | replyMiss count:uvarint { hash[32] }*
//
// A replyMiss means the meet did NOT run: the caller forgets the missed
// hashes and retries once with refs disabled, which cannot miss. Reply
// briefcases may ref only hashes pinned by this request (shipped or
// referenced in it), so a reply ref is always resolvable by the caller —
// there is no client-side miss path. Both ends of a link maintain one
// folder.DeltaCache per peer.

// Response tags.
const (
	replyBriefcase = 0x00
	replyMiss      = 0x01
)

// appendMeetRequest frames a meet request into dst (typically a pooled
// buffer) and returns the extended slice.
func appendMeetRequest(dst []byte, agent, origin string, bc *folder.Briefcase,
	c *folder.DeltaCache, refs func(folder.Hash) ([]byte, bool),
	pin func(folder.Hash, []byte), rec folder.DeltaRecorder) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(agent)))
	dst = append(dst, agent...)
	dst = binary.AppendUvarint(dst, uint64(len(origin)))
	dst = append(dst, origin...)
	return folder.AppendBriefcaseDelta(dst, bc, c, refs, pin, rec)
}

// decodeMeetRequest parses a meet request. A nil briefcase with a
// non-empty missing list means every frame was well-formed but some refs
// could not be resolved; the caller must answer with a miss reply.
func decodeMeetRequest(data []byte, resolve func(folder.Hash) ([]byte, bool),
	cached func(folder.Hash, []byte)) (agent, origin string, bc *folder.Briefcase, missing []folder.Hash, err error) {
	agent, data, err = takeString(data)
	if err != nil {
		return "", "", nil, nil, fmt.Errorf("core: meet request agent: %w", err)
	}
	origin, data, err = takeString(data)
	if err != nil {
		return "", "", nil, nil, fmt.Errorf("core: meet request origin: %w", err)
	}
	bc, missing, err = folder.DecodeBriefcaseDelta(data, resolve, cached)
	if err != nil {
		return "", "", nil, nil, fmt.Errorf("core: meet request briefcase: %w", err)
	}
	return agent, origin, bc, missing, nil
}

// appendMissReply frames the "resend these in full" response.
func appendMissReply(dst []byte, missing []folder.Hash) []byte {
	dst = append(dst, replyMiss)
	dst = binary.AppendUvarint(dst, uint64(len(missing)))
	for i := range missing {
		dst = append(dst, missing[i][:]...)
	}
	return dst
}

// decodeMissReply parses the hash list of a replyMiss body.
func decodeMissReply(data []byte) ([]folder.Hash, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("core: bad miss reply count")
	}
	data = data[n:]
	hashLen := uint64(len(folder.Hash{}))
	// Bound count before multiplying: a forged count near 2^64 must not
	// overflow into a passing length check.
	if count > uint64(len(data))/hashLen || uint64(len(data)) != count*hashLen {
		return nil, fmt.Errorf("core: miss reply: %d bytes for %d hashes", len(data), count)
	}
	out := make([]folder.Hash, count)
	for i := range out {
		copy(out[i][:], data[:hashLen])
		data = data[hashLen:]
	}
	return out, nil
}

func takeString(data []byte) (string, []byte, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 || uint64(len(data[used:])) < n {
		return "", nil, fmt.Errorf("truncated string field")
	}
	return string(data[used : used+int(n)]), data[used+int(n):], nil
}
