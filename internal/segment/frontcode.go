package segment

import "encoding/binary"

// AppendFrontCoded appends id as one entry of a front-coded list: how many
// leading bytes it shares with prev, the entry before it ("" for the
// first), then the length and the bytes of the rest. A sorted segment list
// repeats long prefixes ("docs/e00-paste#p0", "docs/e00-paste#p1"); the
// state image stores each once (see internal/index and internal/tdm).
func AppendFrontCoded(buf []byte, prev, id ID) []byte {
	shared := 0
	for shared < len(prev) && shared < len(id) && prev[shared] == id[shared] {
		shared++
	}
	buf = binary.AppendUvarint(buf, uint64(shared))
	buf = binary.AppendUvarint(buf, uint64(len(id)-shared))
	return append(buf, id[shared:]...)
}

// ReadFrontCoded decodes the entry at the start of data. prev holds the
// bytes of the entry before it and is overwritten in place with this
// entry's, which are returned along with the number of bytes of data
// consumed. n is 0 when the entry is truncated or claims to share more
// bytes than prev has.
func ReadFrontCoded(data, prev []byte) (id []byte, n int) {
	shared, a := binary.Uvarint(data)
	if a <= 0 || shared > uint64(len(prev)) {
		return prev, 0
	}
	rest, b := binary.Uvarint(data[a:])
	if b <= 0 || rest > uint64(len(data)-a-b) {
		return prev, 0
	}
	n = a + b + int(rest)
	return append(prev[:shared], data[a+b:n]...), n
}
