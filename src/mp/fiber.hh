/**
 * @file
 * Stackful fibers for the MP scheduler.
 *
 * A Stack is an mmap'd region with a PROT_NONE guard page below it.
 * A Context is one execution context: a fiber that runs on a Stack,
 * or the host thread that switched into the fibers. Every switch
 * carries the AddressSanitizer and ThreadSanitizer annotations the
 * sanitizer builds need to follow a stack change.
 *
 * The register switch is a template parameter. On x86-64 the native
 * one is a hand-written routine that saves the callee-saved registers,
 * MXCSR and the x87 control word; every other architecture uses glibc
 * ucontext, which x86-64 builds compile too so a test can run it.
 */

#ifndef MEMWALL_MP_FIBER_HH
#define MEMWALL_MP_FIBER_HH

#include <ucontext.h>

#include <cstddef>

namespace memwall::fiber {

/** Usable bytes of every fiber stack. The deepest use measured, by
 *  Figures 13-17 in an ASan Debug build, is about 7 KiB. */
constexpr std::size_t stack_bytes = std::size_t{256} * 1024;

/** An mmap'd fiber stack with a PROT_NONE guard page below it. */
class Stack
{
  public:
    Stack();
    ~Stack();

    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    /** Lowest usable address (just above the guard page). */
    char *base() const { return base_; }
    /** Usable bytes above base(). */
    std::size_t size() const { return size_; }

  private:
    void *map_ = nullptr;
    std::size_t map_bytes_ = 0;
    char *base_ = nullptr;
    std::size_t size_ = 0;
};

#if defined(__x86_64__)
/** x86-64 register switch: the saved context is the stack pointer. */
struct AsmSwitch
{
    void *sp = nullptr;

    /** Make the next jump() into this context call @p entry(@p arg). */
    void prepare(const Stack &stack, void (*entry)(void *), void *arg);
    /** Save the running context into @p from and resume @p to. */
    static void jump(AsmSwitch &from, AsmSwitch &to);
};
#endif

/** glibc ucontext register switch, the portable fallback. */
struct UcontextSwitch
{
    ucontext_t uc{};
    void (*entry)(void *) = nullptr;
    void *arg = nullptr;

    /** Make the next jump() into this context call @p entry(@p arg). */
    void prepare(const Stack &stack, void (*entry)(void *), void *arg);
    /** Save the running context into @p from and resume @p to. */
    static void jump(UcontextSwitch &from, UcontextSwitch &to);
};

#if defined(__x86_64__)
using NativeSwitch = AsmSwitch;
#else
using NativeSwitch = UcontextSwitch;
#endif

/**
 * One execution context plus the sanitizer state its switches need.
 * Contexts never move: switches keep pointers to them.
 */
template <class Switch>
class Context
{
  public:
    /** The calling thread's own context. Construct it on the thread
     *  that switches into the fibers. */
    Context();
    /** A fiber context on @p stack, which must outlive it; start()
     *  gives it work. */
    explicit Context(Stack &stack);
    ~Context();

    Context(const Context &) = delete;
    Context &operator=(const Context &) = delete;

    /**
     * (Re)start this fiber at the top of its stack: the next switch
     * into it calls @p entry(@p arg). @p entry must leave through
     * exitTo(), never return. The fiber must not be running.
     */
    void start(void (*entry)(void *), void *arg);

    /** Suspend this (running) context and resume @p to. Returns when
     *  some context switches back into this one. */
    void switchTo(Context &to);

    /** Leave this fiber for good and resume @p to. Only start() makes
     *  it runnable again. */
    [[noreturn]] void exitTo(Context &to);

  private:
    static void begin(void *self);
    /** Sanitizer bookkeeping on landing in this context. */
    void landed(void *fake_stack);
    void jumpTo(Context &to, void **fake_stack);

    Switch regs_;
    Stack *stack_ = nullptr;  ///< null for the host thread's context
    void (*entry_)(void *) = nullptr;
    void *arg_ = nullptr;
    // Sanitizer state; unused in other builds.
    const void *stack_bottom_ = nullptr;
    std::size_t stack_size_ = 0;
    void *fake_stack_ = nullptr;
    Context *resumed_by_ = nullptr;
    void *tsan_fiber_ = nullptr;
};

extern template class Context<UcontextSwitch>;
#if defined(__x86_64__)
extern template class Context<AsmSwitch>;
#endif

} // namespace memwall::fiber

#endif // MEMWALL_MP_FIBER_HH
