package piersearch

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"

	"piersearch/internal/pier"
)

// Table names in the DHT namespace.
const (
	TableItem          = "Item"
	TableInverted      = "Inverted"
	TableInvertedCache = "InvertedCache"
)

// ItemSchema is the paper's Item(fileID, filename, filesize, ipAddress,
// port) relation, published under fileID.
var ItemSchema = pier.MustSchema(TableItem,
	[]pier.Column{
		{Name: "fileID", Kind: pier.KindBytes},
		{Name: "filename", Kind: pier.KindString},
		{Name: "filesize", Kind: pier.KindInt},
		{Name: "ipAddress", Kind: pier.KindString},
		{Name: "port", Kind: pier.KindInt},
	},
	[]string{"fileID"}, "fileID")

// InvertedSchema is the paper's Inverted(keyword, fileID) relation,
// published under keyword so a keyword's posting list collects on one node.
var InvertedSchema = pier.MustSchema(TableInverted,
	[]pier.Column{
		{Name: "keyword", Kind: pier.KindString},
		{Name: "fileID", Kind: pier.KindBytes},
	},
	[]string{"keyword", "fileID"}, "keyword")

// InvertedCacheSchema is the InvertedCache(keyword, fileID, fulltext)
// variant of §3.2 that caches the filename on every posting entry.
var InvertedCacheSchema = pier.MustSchema(TableInvertedCache,
	[]pier.Column{
		{Name: "keyword", Kind: pier.KindString},
		{Name: "fileID", Kind: pier.KindBytes},
		{Name: "fulltext", Kind: pier.KindString},
	},
	[]string{"keyword", "fileID"}, "keyword")

// RegisterSchemas installs the PIERSearch catalog on a PIER engine. Every
// participating node must call this before publishing or querying.
func RegisterSchemas(e *pier.Engine) {
	e.Register(ItemSchema)
	e.Register(InvertedSchema)
	e.Register(InvertedCacheSchema)
}

// File is one shared file as advertised by a host.
type File struct {
	Name string
	Size int64
	Host string // IP address (or simulation host name)
	Port int
}

// FileID is the unique file identifier: per §3.1 it is a hash over the
// item's fields, so identical replicas on different hosts get distinct IDs
// while the same share republished hashes identically.
type FileID [sha1.Size]byte

// ID computes the file's identifier.
func (f File) ID() FileID {
	h := sha1.New()
	h.Write([]byte(f.Name))
	var sz [8]byte
	binary.BigEndian.PutUint64(sz[:], uint64(f.Size))
	h.Write(sz[:])
	h.Write([]byte(f.Host))
	binary.BigEndian.PutUint64(sz[:], uint64(f.Port))
	h.Write(sz[:])
	var id FileID
	copy(id[:], h.Sum(nil))
	return id
}

// String returns the hex form of the identifier.
func (id FileID) String() string { return fmt.Sprintf("%x", id[:]) }

// ItemTuple builds the Item tuple for f.
func (f File) ItemTuple() pier.Tuple { return itemTuple(f.ID(), f) }

// itemTuple lays f out as an Item tuple under id.
func itemTuple(id FileID, f File) pier.Tuple {
	return pier.Tuple{
		pier.Bytes(id[:]),
		pier.String(f.Name),
		pier.Int(f.Size),
		pier.String(f.Host),
		pier.Int(int64(f.Port)),
	}
}

// FileFromItemTuple reconstructs a File and its identifier from an Item
// tuple fetched out of the DHT.
func FileFromItemTuple(t pier.Tuple) (File, FileID, error) {
	if err := ItemSchema.Validate(t); err != nil {
		return File{}, FileID{}, err
	}
	var id FileID
	copy(id[:], t[0].Raw())
	return File{
		Name: t[1].Text(),
		Size: t[2].Num(),
		Host: t[3].Text(),
		Port: int(t[4].Num()),
	}, id, nil
}
