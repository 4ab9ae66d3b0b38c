package wire

import "hash/crc32"

// castagnoli is the CRC32-C polynomial table used for end-to-end page
// checksums. Castagnoli is the conventional choice for storage-path
// integrity (iSCSI, ext4, Btrfs): it catches the burst and bit-flip
// patterns a mangled DMA or a flaky NIC produces.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes the end-to-end page checksum carried on DataResp,
// WriteReq and HandoffPage frames: CRC32-C over the raw page bytes.
// Every sender sets the field and every receiver compares it; no value
// of it means "unchecked".
func Checksum(data []byte) uint32 {
	return crc32.Checksum(data, castagnoli)
}
