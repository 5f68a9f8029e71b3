#include "mp/fiber.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

#include "common/logging.hh"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#define MEMWALL_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#define MEMWALL_FIBER_TSAN 1
#endif

namespace memwall::fiber {

Stack::Stack()
{
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    size_ = (stack_bytes + page - 1) / page * page;
    map_bytes_ = size_ + page;
    map_ = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (map_ == MAP_FAILED)
        MW_FATAL("cannot map a ", map_bytes_, "-byte fiber stack: ",
                 std::strerror(errno));
    if (mprotect(map_, page, PROT_NONE) != 0)
        MW_FATAL("cannot protect a fiber stack guard page: ",
                 std::strerror(errno));
    base_ = static_cast<char *>(map_) + page;
}

Stack::~Stack()
{
    munmap(map_, map_bytes_);
}

#if defined(__x86_64__)

extern "C" {
void memwall_fiber_switch(void **save_sp, void *load_sp);
void memwall_fiber_trampoline();
}

// memwall_fiber_switch pushes the callee-saved registers, MXCSR and
// the x87 control word onto the running stack, stores the stack
// pointer through save_sp, loads load_sp and pops the same frame off
// the other stack. A fresh fiber's frame returns into
// memwall_fiber_trampoline, which calls r13(r12). The code lives here
// rather than in a .S file so that every build of src/ compiles it as
// C++ alone.
asm(R"(
    .text
    .p2align 4
    .globl memwall_fiber_switch
    .hidden memwall_fiber_switch
    .type memwall_fiber_switch, @function
memwall_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size memwall_fiber_switch, .-memwall_fiber_switch

    .p2align 4
    .globl memwall_fiber_trampoline
    .hidden memwall_fiber_trampoline
    .type memwall_fiber_trampoline, @function
memwall_fiber_trampoline:
    .cfi_startproc
    .cfi_undefined rip
    movq %r12, %rdi
    call *%r13
    ud2
    .cfi_endproc
    .size memwall_fiber_trampoline, .-memwall_fiber_trampoline
)");

void
AsmSwitch::prepare(const Stack &stack, void (*entry)(void *), void *arg)
{
    // The frame memwall_fiber_switch pops, lowest address first. It
    // ends at the 16-aligned stack top, so the trampoline's call
    // enters @p entry with the ABI's stack alignment.
    auto *frame = reinterpret_cast<std::uint64_t *>(stack.base() +
                                                    stack.size()) -
                  8;
    std::uint32_t mxcsr = 0;
    std::uint16_t fpcw = 0;
    asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpcw));
    frame[0] = mxcsr | std::uint64_t{fpcw} << 32;
    frame[1] = 0;                                    // r15
    frame[2] = 0;                                    // r14
    frame[3] = reinterpret_cast<std::uint64_t>(entry); // r13
    frame[4] = reinterpret_cast<std::uint64_t>(arg);   // r12
    frame[5] = 0;                                    // rbx
    frame[6] = 0; // rbp: frame-pointer walks stop here
    frame[7] = reinterpret_cast<std::uint64_t>(&memwall_fiber_trampoline);
    sp = frame;
}

void
AsmSwitch::jump(AsmSwitch &from, AsmSwitch &to)
{
    memwall_fiber_switch(&from.sp, to.sp);
}

#endif // __x86_64__

namespace {

/** The context this thread last jumped into. makecontext passes only
 *  int arguments, so a fresh context finds itself here instead. */
thread_local UcontextSwitch *entering = nullptr;

void
ucontextEntry()
{
    UcontextSwitch &self = *entering;
    self.entry(self.arg);
}

} // namespace

void
UcontextSwitch::prepare(const Stack &stack, void (*fn)(void *), void *a)
{
    entry = fn;
    arg = a;
    if (getcontext(&uc) != 0)
        MW_PANIC("getcontext failed: ", std::strerror(errno));
    uc.uc_stack.ss_sp = stack.base();
    uc.uc_stack.ss_size = stack.size();
    uc.uc_link = nullptr;
    makecontext(&uc, &ucontextEntry, 0);
}

void
UcontextSwitch::jump(UcontextSwitch &from, UcontextSwitch &to)
{
    entering = &to;
    if (swapcontext(&from.uc, &to.uc) != 0)
        MW_PANIC("swapcontext failed: ", std::strerror(errno));
}

template <class Switch>
Context<Switch>::Context()
{
#ifdef MEMWALL_FIBER_TSAN
    tsan_fiber_ = __tsan_get_current_fiber();
#endif
}

template <class Switch>
Context<Switch>::Context(Stack &stack)
    : stack_(&stack), stack_bottom_(stack.base()),
      stack_size_(stack.size())
{
}

template <class Switch>
Context<Switch>::~Context()
{
#ifdef MEMWALL_FIBER_TSAN
    if (stack_ && tsan_fiber_)
        __tsan_destroy_fiber(tsan_fiber_);
#endif
}

template <class Switch>
void
Context<Switch>::start(void (*entry)(void *), void *arg)
{
    MW_ASSERT(stack_, "only a fiber context can be started");
    entry_ = entry;
    arg_ = arg;
#ifdef MEMWALL_FIBER_ASAN
    // The frames an earlier run left on this stack never returned, so
    // their redzones are still poisoned.
    ASAN_UNPOISON_MEMORY_REGION(stack_->base(), stack_->size());
#endif
#ifdef MEMWALL_FIBER_TSAN
    // A fresh TSan fiber, so those frames do not pile up on its shadow
    // call stack either.
    if (tsan_fiber_)
        __tsan_destroy_fiber(tsan_fiber_);
    tsan_fiber_ = __tsan_create_fiber(0);
#endif
    regs_.prepare(*stack_, &Context::begin, this);
}

template <class Switch>
void
Context<Switch>::jumpTo(Context &to, void **fake_stack)
{
    to.resumed_by_ = this;
#ifdef MEMWALL_FIBER_ASAN
    __sanitizer_start_switch_fiber(fake_stack, to.stack_bottom_,
                                   to.stack_size_);
#else
    (void)fake_stack;
#endif
#ifdef MEMWALL_FIBER_TSAN
    __tsan_switch_to_fiber(to.tsan_fiber_, 0);
#endif
    Switch::jump(regs_, to.regs_);
}

template <class Switch>
void
Context<Switch>::switchTo(Context &to)
{
    jumpTo(to, &fake_stack_);
    landed(fake_stack_);
}

template <class Switch>
void
Context<Switch>::exitTo(Context &to)
{
    // No fake-stack slot: ASan frees this fiber's fake frames.
    jumpTo(to, nullptr);
    MW_PANIC("a finished fiber was resumed");
}

template <class Switch>
void
Context<Switch>::landed(void *fake_stack)
{
#ifdef MEMWALL_FIBER_ASAN
    const void *bottom = nullptr;
    std::size_t size = 0;
    __sanitizer_finish_switch_fiber(fake_stack, &bottom, &size);
    // The host thread's stack bounds are learnt here, when a fiber is
    // first entered from it.
    if (!resumed_by_->stack_bottom_) {
        resumed_by_->stack_bottom_ = bottom;
        resumed_by_->stack_size_ = size;
    }
#else
    (void)fake_stack;
#endif
}

template <class Switch>
void
Context<Switch>::begin(void *self)
{
    auto &ctx = *static_cast<Context *>(self);
    ctx.landed(nullptr);
    ctx.entry_(ctx.arg_);
    MW_PANIC("a fiber entry returned");
}

template class Context<UcontextSwitch>;
#if defined(__x86_64__)
template class Context<AsmSwitch>;
#endif

} // namespace memwall::fiber
