package capture

import (
	"bytes"
	"encoding/binary"
	"testing"

	"mptcpsim/internal/packet"
)

// FuzzReadPCAP asserts the capture reader's contract on arbitrary input:
// neither ReadPCAP nor FormatFrame on any record it returns ever panics.
// pcapdump runs both on whatever file it is given.
func FuzzReadPCAP(f *testing.F) {
	recs := mixedCapture(f)
	var clean bytes.Buffer
	if err := WritePCAP(&clean, recs); err != nil {
		f.Fatal(err)
	}
	f.Add(clean.Bytes())

	// Frames with a valid IPv4 checksum but inconsistent lengths, each
	// alone in a capture file.
	patched := func(frame []byte, at int, b ...byte) []byte {
		out := append([]byte{}, frame...)
		copy(out[at:], b)
		binary.BigEndian.PutUint16(out[10:], 0)
		binary.BigEndian.PutUint16(out[10:], packet.Checksum(out[:packet.IPv4HeaderLen]))
		return out
	}
	tcp, udp := recs[0].Data, recs[1].Data
	opt := packet.IPv4HeaderLen + packet.TCPHeaderLen // the DSS option's kind byte
	for _, frame := range [][]byte{
		patched(udp, 2, 0, 10),                 // total length 10
		patched(tcp, opt, packet.KindMPTCP, 2), // MPTCP option of length 2
		patched(tcp, opt, packet.KindMPTCP, 3), // DSS option of length 3
	} {
		var buf bytes.Buffer
		if err := WritePCAP(&buf, []Record{{Data: frame}}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadPCAP(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, r := range recs {
			FormatFrame(r)
		}
	})
}
