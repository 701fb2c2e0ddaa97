/**
 * @file
 * Sparse byte-addressable memory image.
 *
 * The simulator keeps two of these: one updated in program order (the
 * architectural image defining load values) and one updated at store
 * commit time (the image a DLVP cache probe observes). The difference
 * between the two *is* the in-flight-store staleness the paper's LSCD
 * suppresses.
 *
 * Every load and store in the core touches both images, so the
 * accessors are the hottest code in the simulator. Two fast paths keep
 * them cheap (DESIGN.md §8):
 *  - an MRU last-page cache skips the hash-map lookup entirely for
 *    the (overwhelmingly common) same-page-as-last-access case;
 *  - accesses that stay within one page move whole words with memcpy
 *    instead of assembling values a byte at a time. Page-crossing
 *    accesses fall back to the byte-at-a-time slow path.
 */

#ifndef DLVP_TRACE_MEMORY_IMAGE_HH
#define DLVP_TRACE_MEMORY_IMAGE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "common/types.hh"

namespace dlvp::trace
{

/**
 * Page-granular sparse memory. Unwritten bytes read as zero.
 * Copyable so a trace can snapshot its initial image; copies share
 * pages copy-on-write, so snapshotting a multi-megabyte image into
 * every core costs pointer copies, and a page is only duplicated when
 * one of the sharers first writes it.
 */
class MemoryImage
{
  public:
    static constexpr unsigned kPageBits = 12;
    static constexpr Addr kPageSize = Addr{1} << kPageBits;

    MemoryImage() = default;
    MemoryImage(const MemoryImage &other);
    MemoryImage &operator=(const MemoryImage &other);
    MemoryImage(MemoryImage &&other) noexcept;
    MemoryImage &operator=(MemoryImage &&other) noexcept;

    /** Read @p size bytes (1..8) little-endian; may cross pages. */
    std::uint64_t read(Addr addr, unsigned size) const;

    /** Write the low @p size bytes (1..8) of @p value; may cross pages. */
    void write(Addr addr, std::uint64_t value, unsigned size);

    std::uint8_t readByte(Addr addr) const;
    void writeByte(Addr addr, std::uint8_t b);

    /** Number of populated pages (for footprint reporting). */
    std::size_t numPages() const { return pages_.size(); }

    /**
     * Bytes of page storage backing this image (pages × page size).
     * An upper bound on the truly-written footprint: unwritten bytes
     * inside an allocated page also read as zero.
     */
    std::size_t allocatedBytes() const { return pages_.size() * kPageSize; }

    /** Visit every populated page in ascending address order. */
    void forEachPage(
        const std::function<void(Addr, const std::uint8_t *)> &fn) const;

    /** Install a whole page of raw bytes at @p page_addr (aligned). */
    void installPage(Addr page_addr, const std::uint8_t *bytes);

    /**
     * Alias every page of @p src at (page address + @p addr_offset),
     * sharing storage copy-on-write like the copy constructor. The
     * offset must be page-aligned. Lets the mega-trace stitcher
     * (trace/mega.hh) relocate a phase's multi-megabyte image many
     * times for the cost of pointer copies.
     */
    void adoptPages(const MemoryImage &src, Addr addr_offset);

    void
    clear()
    {
        pages_.clear();
        resetMru();
    }

  private:
    using Page = std::array<std::uint8_t, kPageSize>;

    /**
     * shared_ptr implements the copy-on-write sharing: a copied image
     * aliases the source's pages, and getPage() clones a page the
     * moment a write finds it shared (use_count > 1).
     */
    std::unordered_map<Addr, std::shared_ptr<Page>> pages_;

    /**
     * MRU last-page cache. Page storage is heap-allocated behind
     * shared_ptr, so a cached pointer survives map rehash, and our own
     * map entry keeps the page alive even if a sharing image clones
     * away from it. kNoAddr can never match a real (page-aligned)
     * base, so it doubles as the empty sentinel. mruSlot_ points at
     * the cached page's map slot (stable until that element is
     * erased); the write path re-proves exclusive ownership on every
     * use via the slot's use_count(), so images that alias our pages
     * out (copies, adoptPages) never have to reach back and poison
     * this cache — sharing bumps the refcount, and the refcount *is*
     * the ownership proof. That keeps concurrent copies from one
     * shared source image free of cross-image writes.
     * mutable: the read path is const but still updates the cache.
     */
    mutable Addr mruAddr_ = kNoAddr;
    mutable Page *mruPage_ = nullptr;
    mutable const std::shared_ptr<Page> *mruSlot_ = nullptr;

    void
    resetMru() const
    {
        mruAddr_ = kNoAddr;
        mruPage_ = nullptr;
        mruSlot_ = nullptr;
    }

    /** MRU-cached page lookup; nullptr when absent (not cached). */
    Page *findMru(Addr page_addr) const;

    Page *getPage(Addr page_addr, bool allocate);
};

} // namespace dlvp::trace

#endif // DLVP_TRACE_MEMORY_IMAGE_HH
