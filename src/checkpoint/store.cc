#include "checkpoint/store.hh"

namespace memwall {
namespace ckpt {

bool
CheckpointStore::save(const std::string &key,
                      const CheckpointWriter &w, std::string *why)
{
    std::string local_why;
    if (!w.writeFile(pathFor(key), &local_why)) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++counters_.write_errors;
        if (why)
            *why = local_why;
        return false;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.written;
    return true;
}

LoadError
CheckpointStore::load(const std::string &key,
                      CheckpointReader &reader)
{
    const LoadError e = reader.loadFile(pathFor(key), config_hash_);
    std::lock_guard<std::mutex> lock(mutex_);
    switch (e) {
    case LoadError::None:
        ++counters_.loaded;
        break;
    case LoadError::Io:
        ++counters_.degraded_missing;
        break;
    case LoadError::BadVersion:
        ++counters_.degraded_version;
        break;
    case LoadError::BadConfig:
        ++counters_.degraded_config;
        break;
    case LoadError::Truncated:
    case LoadError::BadMagic:
    case LoadError::BadHeaderCrc:
    case LoadError::BadSectionCrc:
    case LoadError::Malformed:
        ++counters_.degraded_corrupt;
        break;
    }
    return e;
}

void
CheckpointStore::noteMalformed()
{
    std::lock_guard<std::mutex> lock(mutex_);
    // The container validated, so load() counted it as applied;
    // reclassify now that the payload turned out to be bad.
    if (counters_.loaded > 0)
        --counters_.loaded;
    ++counters_.degraded_corrupt;
}

StoreCounters
CheckpointStore::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

} // namespace ckpt
} // namespace memwall
