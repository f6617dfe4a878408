package capture

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"mptcpsim/internal/sim"
)

// Classic pcap file constants (little-endian variant).
const (
	pcapMagic   = 0xa1b2c3d4
	pcapVMajor  = 2
	pcapVMinor  = 4
	pcapSnapLen = 65535
	// linkTypeRaw is LINKTYPE_RAW: packets begin with the IP header.
	linkTypeRaw = 101
)

// WritePCAP emits the retained records as a standard pcap capture file
// (LINKTYPE_RAW), loadable in Wireshark/tshark — completing the loop with
// the paper's methodology.
func WritePCAP(w io.Writer, records []Record) error {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:], pcapVMajor)
	binary.LittleEndian.PutUint16(hdr[6:], pcapVMinor)
	// thiszone, sigfigs = 0
	binary.LittleEndian.PutUint32(hdr[16:], pcapSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:], linkTypeRaw)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for i, r := range records {
		if r.Data == nil {
			return fmt.Errorf("capture: record %d has no frame data (set Sniffer.Retain)", i)
		}
		var rh [16]byte
		ts := r.At.Duration()
		binary.LittleEndian.PutUint32(rh[0:], uint32(ts/time.Second))
		binary.LittleEndian.PutUint32(rh[4:], uint32(ts%time.Second/time.Microsecond))
		binary.LittleEndian.PutUint32(rh[8:], uint32(len(r.Data)))
		binary.LittleEndian.PutUint32(rh[12:], uint32(len(r.Data)))
		if _, err := w.Write(rh[:]); err != nil {
			return err
		}
		if _, err := w.Write(r.Data); err != nil {
			return err
		}
	}
	return nil
}

// ReadPCAP parses a pcap file written by WritePCAP.
func ReadPCAP(r io.Reader) ([]Record, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("capture: short pcap header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != pcapMagic {
		return nil, fmt.Errorf("capture: bad pcap magic %#x", binary.LittleEndian.Uint32(hdr[0:]))
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:]); lt != linkTypeRaw {
		return nil, fmt.Errorf("capture: unsupported link type %d", lt)
	}
	var out []Record
	for {
		var rh [16]byte
		if _, err := io.ReadFull(r, rh[:]); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("capture: short record header: %w", err)
		}
		sec := binary.LittleEndian.Uint32(rh[0:])
		usec := binary.LittleEndian.Uint32(rh[4:])
		capLen := binary.LittleEndian.Uint32(rh[8:])
		if capLen > pcapSnapLen {
			return nil, fmt.Errorf("capture: record exceeds snaplen: %d", capLen)
		}
		data := make([]byte, capLen)
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, fmt.Errorf("capture: truncated record: %w", err)
		}
		at := sim.Time(sec)*sim.Time(time.Second) + sim.Time(usec)*sim.Time(time.Microsecond)
		out = append(out, Record{At: at, Data: data})
	}
}
