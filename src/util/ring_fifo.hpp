/**
 * @file
 * A FIFO on a power-of-two ring: the bank and bus request queues
 * (sim/request.hpp) and the event queue's in-order stream
 * (sim/event_queue.hpp).
 */

#ifndef FASTCAP_UTIL_RING_FIFO_HPP
#define FASTCAP_UTIL_RING_FIFO_HPP

#include <cstddef>
#include <vector>

namespace fastcap {

/**
 * FIFO of `T` on a power-of-two ring. Its first push allocates
 * `kFirst` slots (a power of two); it grows by doubling and never
 * shrinks, so a queue whose depth has peaked allocates nothing more.
 */
template <typename T, std::size_t kFirst>
class RingFifo
{
  public:
    bool empty() const { return _size == 0; }
    std::size_t size() const { return _size; }

    /** The head; the queue must not be empty. */
    T &front() { return _buf[_head]; }

    /** The tail; the queue must not be empty. */
    const T &
    back() const
    {
        return _buf[(_head + _size - 1) & (_buf.size() - 1)];
    }

    void
    push(const T &item)
    {
        if (_size == _buf.size())
            grow();
        _buf[(_head + _size) & (_buf.size() - 1)] = item;
        ++_size;
    }

    /** Remove and return the head; the queue must not be empty. */
    T
    pop()
    {
        const T item = _buf[_head];
        _head = (_head + 1) & (_buf.size() - 1);
        --_size;
        return item;
    }

  private:
    static_assert(kFirst > 0 && (kFirst & (kFirst - 1)) == 0,
                  "RingFifo: kFirst must be a power of two");

    void
    grow()
    {
        std::vector<T> bigger(_buf.empty() ? kFirst : 2 * _buf.size());
        for (std::size_t i = 0; i < _size; ++i)
            bigger[i] = _buf[(_head + i) & (_buf.size() - 1)];
        _buf.swap(bigger);
        _head = 0;
    }

    std::vector<T> _buf;
    std::size_t _head = 0;
    std::size_t _size = 0;
};

} // namespace fastcap

#endif // FASTCAP_UTIL_RING_FIFO_HPP
