// Package storage provides the physical substrate shared by every simulated
// cloud database: page identity and sizing, an LRU buffer pool with dirty
// tracking (a flat frame slab and an open-addressed page index, no list and
// no map), and write-ahead-log records with a real binary codec.
//
// Row *data* lives in the engine's logical layer (delta trees over a
// deterministic generator); this package models where that data physically
// resides — which 8 KB page a row belongs to, whether that page is cached,
// and what log bytes a change produces. The split keeps ACID semantics real
// while letting a 20 GB scale-factor-100 database exist without 20 GB of
// RAM: cold pages are identities, not buffers.
package storage

// PageSize is the uniform page size in bytes (PostgreSQL's default 8 KB,
// matching the engines the paper's SUTs are built on).
const PageSize = 8192

// TableID identifies a table within a database.
type TableID uint32

// PageID identifies one page of one table.
type PageID struct {
	Table TableID
	Num   uint64
}

// PagesFor returns the number of pages needed to hold rows of the given
// average size.
func PagesFor(rows int64, avgRowBytes int) uint64 {
	if rows <= 0 {
		return 0
	}
	if avgRowBytes <= 0 {
		avgRowBytes = 1
	}
	perPage := int64(PageSize / avgRowBytes)
	if perPage < 1 {
		perPage = 1
	}
	return uint64((rows + perPage - 1) / perPage)
}

// RowsPerPage returns how many rows of the given average size fit per page.
func RowsPerPage(avgRowBytes int) int64 {
	if avgRowBytes <= 0 {
		avgRowBytes = 1
	}
	n := int64(PageSize / avgRowBytes)
	if n < 1 {
		n = 1
	}
	return n
}
