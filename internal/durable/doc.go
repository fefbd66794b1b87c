// Package durable is the one durability layer every persisted file in
// the runtime goes through: compile-cache entries, native blobs and
// calibrated plans (core.DiskCache), and the ngend job records, sweep
// checkpoints and result-cache entries (internal/server). It plays the
// role of NGen's on-disk compile products, which let a later JVM run
// skip the compile.
//
// It provides four things:
//
//   - WriteFile, one atomic write: a temp file in the target's
//     directory, write, close, rename over the target, and the temp
//     file removed on any failure.
//   - Seal and Open, one versioned, checksummed envelope: a header line
//     naming the envelope version and the fnv-64a of the JSON body,
//     then the body. Open accepts exactly what Seal produced and
//     reports anything else as ErrCorrupt.
//   - Dir.Sweep, one byte-budget eviction in least-recently-modified
//     order over the files whose names match a pattern; Dir.Touch moves
//     a file to the recent end. A Dir keeps a byte ledger per pattern:
//     the bytes the pattern's last scan left, plus the bytes of every
//     matching Put since that scan began. Sweep returns at once while
//     the ledger is within the budget, and scans (list, stat, remove
//     the oldest) only when it is not, and on the pattern's first
//     Sweep after OpenDir, which counts what earlier processes left.
//     The ledger may over-count (an overwrite, a removal) but never
//     misses this Dir's own Puts, so with one writer Sweep evicts
//     exactly what a scan on every call would. Files written by
//     another process, by another Dir on the same root, or by a bare
//     WriteFile are not in the ledger: they are counted at this Dir's
//     next scan.
//   - Dir, one corruption counter per directory: files that fail Open
//     or their consumer's identity check are removed and counted.
//
// # Guarantee
//
// A process crash or SIGKILL at any point leaves either the old file or
// the new one, never a mix: the rename is atomic and the temp file is
// never read. A leftover temp file is named <name>.tmp<random>, which
// no consumer's filename pattern matches.
//
// Files are not fsynced. A power loss can therefore lose recent writes,
// or leave a zero-length or partly written file; such a file fails Open
// and loads as counted corruption, never as wrong data. For the job
// store this rolls a job back to an earlier persisted transition, or
// loses the job record when the file is left empty.
package durable
