#include "serve/client.hh"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace deskpar::serve {

Client::~Client()
{
    close();
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buffer_.clear();
}

bool
Client::connect(const std::string &socketPath, std::string &error)
{
    close();
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socketPath.size() >= sizeof(addr.sun_path)) {
        error = "socket path too long: " + socketPath;
        return false;
    }
    std::memcpy(addr.sun_path, socketPath.c_str(),
                socketPath.size() + 1);

    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
        error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        error = "connect " + socketPath + ": " +
                std::strerror(errno);
        close();
        return false;
    }
    return true;
}

bool
Client::sendLine(const std::string &line, std::string &error)
{
    if (fd_ < 0) {
        error = "not connected";
        return false;
    }
    std::string framed = line;
    framed += '\n';
    std::size_t sent = 0;
    while (sent < framed.size()) {
        ssize_t n = ::send(fd_, framed.data() + sent,
                           framed.size() - sent, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            error = std::string("send: ") + std::strerror(errno);
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool
Client::readLine(std::string &line, std::string &error)
{
    if (fd_ < 0) {
        error = "not connected";
        return false;
    }
    while (true) {
        std::size_t nl = buffer_.find('\n');
        if (nl != std::string::npos) {
            line = buffer_.substr(0, nl);
            buffer_.erase(0, nl + 1);
            return true;
        }
        char buf[4096];
        ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
        if (n == 0) {
            error = "server closed the connection";
            return false;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0) {
            error = std::string("recv: ") + std::strerror(errno);
            return false;
        }
        buffer_.append(buf, static_cast<std::size_t>(n));
    }
}

bool
Client::call(const std::string &request, std::string &response,
             std::string &error)
{
    return sendLine(request, error) && readLine(response, error);
}

} // namespace deskpar::serve
