package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// SchemaVersion is baked into every on-disk entry (file name and
// header). Bump it whenever the cached payload's meaning changes —
// Response fields, compiler output semantics, key derivation — and
// every entry written by an older daemon silently becomes a miss and
// is garbage-collected at the next open, instead of serving stale
// results to a new binary.
const SchemaVersion = 1

// diskMagic starts every entry file; anything else is corruption.
var diskMagic = [8]byte{'D', 'I', 'F', 'F', 'R', 'A', 'C', 0}

// diskSuffix is the version-carrying file suffix of the current
// schema, e.g. "key.v1". Entries with a different version never match
// and are removed during Open's scan.
var diskSuffix = fmt.Sprintf(".v%d", SchemaVersion)

// DiskStats is a point-in-time counter snapshot of a disk tier.
type DiskStats struct {
	Hits        int64
	Misses      int64
	Corrupt     int64
	Evictions   int64
	Writes      int64
	WriteErrors int64
}

// Disk is the persistent tier of the two-level cache: one checksummed
// file per key under a directory, surviving restarts. It is tuned for
// the failure model of a cache, not a database: a truncated, damaged
// or renamed entry is a miss (and is deleted), never an error; a
// failed write degrades to a future miss. All methods are safe for
// concurrent use. Recency is approximated per process (rebuilt from
// mtimes at open), and the byte budget is enforced by evicting the
// least recently touched entries.
type Disk struct {
	dir      string
	maxBytes int64

	mu   sync.Mutex
	ll   *list.List // front = most recently touched
	m    map[string]*list.Element
	size int64

	hits, misses, corrupt, evictions, writes, writeErrors atomic.Int64
}

type diskEntry struct {
	key  string
	size int64
}

// OpenDisk opens (creating if needed) a disk tier rooted at dir,
// bounded to maxBytes of entry files (0: 256 MiB). Entries written by
// a previous process with the current SchemaVersion are indexed
// oldest-first from their mtimes; entries from other schema versions
// and abandoned temp files are deleted.
func OpenDisk(dir string, maxBytes int64) (*Disk, error) {
	if maxBytes == 0 {
		maxBytes = 256 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: open disk tier: %w", err)
	}
	d := &Disk{dir: dir, maxBytes: maxBytes, ll: list.New(), m: map[string]*list.Element{}}

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cache: scan disk tier: %w", err)
	}
	type scanned struct {
		key   string
		size  int64
		mtime int64
	}
	var found []scanned
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if !strings.HasSuffix(name, diskSuffix) {
			// Stale schema version or abandoned temp file: reclaim.
			os.Remove(filepath.Join(dir, name))
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		found = append(found, scanned{
			key:   strings.TrimSuffix(name, diskSuffix),
			size:  info.Size(),
			mtime: info.ModTime().UnixNano(),
		})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime < found[j].mtime })
	for _, f := range found {
		d.m[f.key] = d.ll.PushFront(&diskEntry{key: f.key, size: f.size})
		d.size += f.size
	}
	d.evictLocked()
	return d, nil
}

// Dir returns the tier's root directory.
func (d *Disk) Dir() string { return d.dir }

func (d *Disk) path(key string) string {
	return filepath.Join(d.dir, key+diskSuffix)
}

// keyOK rejects keys that are not safe file names. Service keys are
// SHA-256 hex, so this only trips on misuse.
func keyOK(key string) bool {
	if key == "" || len(key) > 200 {
		return false
	}
	return !strings.ContainsAny(key, "/\\:")
}

// Get returns the payload stored for key. Every failure mode — no
// entry, unreadable file, bad magic, wrong schema version, key
// mismatch, truncation, checksum mismatch — is a miss; the damaged
// variants also delete the file and count in Stats().Corrupt.
func (d *Disk) Get(key string) ([]byte, bool) {
	d.mu.Lock()
	e, ok := d.m[key]
	if !ok {
		d.mu.Unlock()
		d.misses.Add(1)
		return nil, false
	}
	d.ll.MoveToFront(e)
	d.mu.Unlock()

	raw, err := os.ReadFile(d.path(key))
	if err != nil {
		// Indexed but unreadable (e.g. removed behind our back).
		d.dropEntry(key, false)
		d.misses.Add(1)
		return nil, false
	}
	payload, ok := decodeEntry(raw, key)
	if !ok {
		d.MarkCorrupt(key)
		d.misses.Add(1)
		return nil, false
	}
	d.hits.Add(1)
	return payload, true
}

// Put stores the payload for key, atomically (temp file + rename) so
// a crash mid-write leaves either the old entry or a temp file the
// next OpenDisk reclaims — never a live truncated entry under the
// current name. Errors degrade to future misses and count in
// Stats().WriteErrors.
func (d *Disk) Put(key string, payload []byte) {
	if !keyOK(key) {
		d.writeErrors.Add(1)
		return
	}
	buf := encodeEntry(key, payload)
	if int64(len(buf)) > d.maxBytes {
		return // larger than the whole budget: not cacheable
	}
	tmp, err := os.CreateTemp(d.dir, "put-*.tmp")
	if err != nil {
		d.writeErrors.Add(1)
		return
	}
	_, werr := tmp.Write(buf)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		d.writeErrors.Add(1)
		return
	}
	if err := os.Rename(tmp.Name(), d.path(key)); err != nil {
		os.Remove(tmp.Name())
		d.writeErrors.Add(1)
		return
	}
	d.writes.Add(1)

	d.mu.Lock()
	if e, ok := d.m[key]; ok {
		ent := e.Value.(*diskEntry)
		d.size += int64(len(buf)) - ent.size
		ent.size = int64(len(buf))
		d.ll.MoveToFront(e)
	} else {
		d.m[key] = d.ll.PushFront(&diskEntry{key: key, size: int64(len(buf))})
		d.size += int64(len(buf))
	}
	d.evictLocked()
	d.mu.Unlock()
}

// evictLocked removes least-recently-touched entries until the byte
// budget holds. Caller holds d.mu.
func (d *Disk) evictLocked() {
	for d.size > d.maxBytes && d.ll.Len() > 0 {
		oldest := d.ll.Back()
		ent := oldest.Value.(*diskEntry)
		d.ll.Remove(oldest)
		delete(d.m, ent.key)
		d.size -= ent.size
		os.Remove(d.path(ent.key))
		d.evictions.Add(1)
	}
}

// MarkCorrupt deletes an entry that failed validation after read —
// either here (header/checksum) or in the caller's decoder — and
// counts it. The next Get of the key is a plain miss.
func (d *Disk) MarkCorrupt(key string) {
	d.corrupt.Add(1)
	d.dropEntry(key, true)
}

func (d *Disk) dropEntry(key string, unlink bool) {
	d.mu.Lock()
	if e, ok := d.m[key]; ok {
		d.size -= e.Value.(*diskEntry).size
		d.ll.Remove(e)
		delete(d.m, key)
	}
	d.mu.Unlock()
	if unlink {
		os.Remove(d.path(key))
	}
}

// Len reports the number of indexed entries.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ll.Len()
}

// Size reports the indexed entry bytes.
func (d *Disk) Size() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.size
}

// Stats snapshots the tier's counters.
func (d *Disk) Stats() DiskStats {
	return DiskStats{
		Hits:        d.hits.Load(),
		Misses:      d.misses.Load(),
		Corrupt:     d.corrupt.Load(),
		Evictions:   d.evictions.Load(),
		Writes:      d.writes.Load(),
		WriteErrors: d.writeErrors.Load(),
	}
}

// encodeEntry frames a payload:
//
//	magic[8] version[u32] keyLen[u32] key payloadLen[u64] payload sha256(payload)[32]
//
// The version pins the schema, the key echo catches renamed/copied
// files, the length catches truncation, and the checksum catches bit
// damage.
func encodeEntry(key string, payload []byte) []byte {
	buf := make([]byte, 0, 8+4+4+len(key)+8+len(payload)+sha256.Size)
	buf = append(buf, diskMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, SchemaVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := sha256.Sum256(payload)
	buf = append(buf, sum[:]...)
	return buf
}

// decodeEntry validates a framed entry against the expected key and
// returns the payload. ok is false on any structural damage.
func decodeEntry(raw []byte, key string) (payload []byte, ok bool) {
	if len(raw) < 8+4+4 || string(raw[:8]) != string(diskMagic[:]) {
		return nil, false
	}
	if binary.LittleEndian.Uint32(raw[8:12]) != SchemaVersion {
		return nil, false
	}
	keyLen := int(binary.LittleEndian.Uint32(raw[12:16]))
	if keyLen != len(key) || len(raw) < 16+keyLen+8 {
		return nil, false
	}
	if string(raw[16:16+keyLen]) != key {
		return nil, false
	}
	off := 16 + keyLen
	payloadLen := binary.LittleEndian.Uint64(raw[off : off+8])
	off += 8
	if payloadLen > uint64(len(raw)) || len(raw) != off+int(payloadLen)+sha256.Size {
		return nil, false
	}
	payload = raw[off : off+int(payloadLen)]
	sum := sha256.Sum256(payload)
	if string(raw[off+int(payloadLen):]) != string(sum[:]) {
		return nil, false
	}
	return payload, true
}
