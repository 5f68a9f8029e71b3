#include "checkpoint/file_io.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

namespace memwall {
namespace ckpt {

namespace {

std::string
errnoMessage(const std::string &what, const std::string &path)
{
    return what + " '" + path + "': " + std::strerror(errno);
}

/** fsync the directory containing @p path so the rename is durable. */
void
fsyncParentDir(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd); // best effort; rename already hit the journal
        ::close(dfd);
    }
}

} // namespace

bool
atomicWriteFile(const std::string &path, const void *data,
                std::size_t len, std::string *why)
{
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        if (why)
            *why = errnoMessage("cannot create", tmp);
        return false;
    }
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::size_t off = 0;
    while (off < len) {
        const ssize_t n = ::write(fd, p + off, len - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (why)
                *why = errnoMessage("short write to", tmp);
            ::close(fd);
            ::unlink(tmp.c_str());
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        if (why)
            *why = errnoMessage("fsync failed on", tmp);
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    if (::close(fd) != 0) {
        if (why)
            *why = errnoMessage("close failed on", tmp);
        ::unlink(tmp.c_str());
        return false;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        if (why)
            *why = errnoMessage("rename failed for", path);
        ::unlink(tmp.c_str());
        return false;
    }
    fsyncParentDir(path);
    return true;
}

std::optional<std::vector<std::uint8_t>>
readFileBytes(const std::string &path, std::string *why)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        if (why)
            *why = errnoMessage("cannot open", path);
        return std::nullopt;
    }
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (why)
                *why = errnoMessage("read failed on", path);
            ::close(fd);
            return std::nullopt;
        }
        if (n == 0)
            break;
        bytes.insert(bytes.end(), buf, buf + n);
    }
    ::close(fd);
    return bytes;
}

} // namespace ckpt
} // namespace memwall
