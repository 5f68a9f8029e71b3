#include "coherence/directory.hh"

#include <algorithm>

#include "common/logging.hh"

namespace memwall {

bool
DirEntry::tracks(unsigned node) const
{
    switch (state_) {
      case DirState::Uncached:
        return false;
      case DirState::SharedBcast:
        return true;  // conservatively: anyone may hold it
      case DirState::Modified:
        return ptrs_[0] == node;
      case DirState::Shared:
        return std::any_of(std::begin(ptrs_), std::end(ptrs_),
                           [node](std::uint8_t p) {
                               return p == node;
                           });
    }
    return false;
}

void
DirEntry::clear()
{
    state_ = DirState::Uncached;
    std::fill(std::begin(ptrs_), std::end(ptrs_), 0);
}

void
DirEntry::addSharer(unsigned node)
{
    MW_ASSERT(node < max_nodes, "node id exceeds pointer width");
    switch (state_) {
      case DirState::SharedBcast:
        return;  // already imprecise
      case DirState::Uncached:
        state_ = DirState::Shared;
        // Duplicate the single sharer into every slot (duplicates
        // mark free slots).
        std::fill(std::begin(ptrs_), std::end(ptrs_),
                  static_cast<std::uint8_t>(node));
        return;
      case DirState::Modified: {
        // Owner downgrades; both become sharers.
        const std::uint8_t owner = ptrs_[0];
        state_ = DirState::Shared;
        std::fill(std::begin(ptrs_), std::end(ptrs_), owner);
        if (owner != node)
            ptrs_[1] = static_cast<std::uint8_t>(node);
        return;
      }
      case DirState::Shared: {
        for (auto p : ptrs_)
            if (p == node)
                return;  // already tracked
        // Replace a duplicate slot if one exists.
        for (unsigned i = 1; i < max_pointers; ++i) {
            bool dup = false;
            for (unsigned j = 0; j < i; ++j)
                if (ptrs_[i] == ptrs_[j])
                    dup = true;
            if (dup) {
                ptrs_[i] = static_cast<std::uint8_t>(node);
                return;
            }
        }
        // Three distinct sharers already: overflow to broadcast.
        state_ = DirState::SharedBcast;
        std::fill(std::begin(ptrs_), std::end(ptrs_), 0);
        return;
      }
    }
}

void
DirEntry::setModified(unsigned node)
{
    MW_ASSERT(node < max_nodes, "node id exceeds pointer width");
    state_ = DirState::Modified;
    std::fill(std::begin(ptrs_), std::end(ptrs_),
              static_cast<std::uint8_t>(node));
}

std::uint16_t
DirEntry::encode() const
{
    std::uint16_t bits =
        static_cast<std::uint16_t>(static_cast<unsigned>(state_)
                                   << 12);
    bits |= static_cast<std::uint16_t>(ptrs_[0] & 0xf) << 8;
    bits |= static_cast<std::uint16_t>(ptrs_[1] & 0xf) << 4;
    bits |= static_cast<std::uint16_t>(ptrs_[2] & 0xf);
    return bits;
}

DirEntry
DirEntry::decode(std::uint16_t bits)
{
    MW_ASSERT((bits >> 14) == 0, "directory entry wider than 14 bits");
    DirEntry e;
    e.state_ = static_cast<DirState>((bits >> 12) & 0x3);
    e.ptrs_[0] = static_cast<std::uint8_t>((bits >> 8) & 0xf);
    e.ptrs_[1] = static_cast<std::uint8_t>((bits >> 4) & 0xf);
    e.ptrs_[2] = static_cast<std::uint8_t>(bits & 0xf);
    return e;
}

bool
DirEntry::operator==(const DirEntry &other) const
{
    return encode() == other.encode();
}

Directory::Directory(unsigned nodes) : nodes_(nodes)
{
    MW_ASSERT(nodes_ >= 1 && nodes_ <= DirEntry::max_nodes,
              "the 14-bit directory supports 1..16 nodes, got ",
              nodes_);
}

} // namespace memwall
