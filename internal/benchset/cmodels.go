package benchset

// Untimed C behavioral models for the combinational problems: the paper's
// §VI "High-Level Guided RTL Debugging" direction leans on LLMs being
// much more reliable at untimed C than at HDL; these models are what such
// a generation produces. One C function per output port, named after the
// port, taking the input ports in declaration order.

// cModels maps problem ID to its C behavioral model.
var cModels = map[string]string{
	"not1": `
int y(int a) { return (~a) & 1; }`,
	"and4": `
int y(int a, int b) { return a & b & 15; }`,
	"mux2": `
int y(int sel, int a, int b) { return sel ? b : a; }`,
	"adder4": `
int sum(int a, int b, int cin) { return (a + b + cin) & 15; }
int cout(int a, int b, int cin) { return (a + b + cin) >> 4; }`,
	"sub8": `
int diff(int a, int b) { return (a - b) & 255; }
int borrow(int a, int b) { return a < b ? 1 : 0; }`,
	"mux4": `
int y(int sel, int a, int b, int c, int d) {
    if (sel == 0) return a;
    if (sel == 1) return b;
    if (sel == 2) return c;
    return d;
}`,
	"dec3to8": `
int y(int en, int sel) { return en ? (1 << sel) & 255 : 0; }`,
	"enc8to3": `
int y(int a) {
    for (int i = 7; i > 0; i--) {
        if ((a >> i) & 1) return i;
    }
    return 0;
}
int valid(int a) { return a != 0 ? 1 : 0; }`,
	"parity8": `
int p(int a) {
    int x = a;
    x ^= x >> 4;
    x ^= x >> 2;
    x ^= x >> 1;
    return x & 1;
}`,
	"popcount8": `
int c(int a) {
    int n = 0;
    for (int i = 0; i < 8; i++) n += (a >> i) & 1;
    return n;
}`,
	"alu8": `
int y(int op, int a, int b) {
    if (op == 0) return (a + b) & 255;
    if (op == 1) return (a - b) & 255;
    if (op == 2) return a & b;
    return a ^ b;
}`,
	"cmp8": `
int eq(int a, int b) { return a == b ? 1 : 0; }
int lt(int a, int b) { return a < b ? 1 : 0; }
int gt(int a, int b) { return a > b ? 1 : 0; }`,
	"absdiff8": `
int y(int a, int b) { return a > b ? a - b : b - a; }`,
	"minmax8": `
int mn(int a, int b) { return a < b ? a : b; }
int mx(int a, int b) { return a < b ? b : a; }`,
	"barrel8": `
int s1(int a, int sh) { return (sh & 1) ? (a << 1) & 255 : a; }
int s2(int a, int sh) { int t = s1(a, sh); return (sh & 2) ? (t << 2) & 255 : t; }
int y(int a, int sh) { return (a << sh) & 255; }`,
	"gray4": `
int g(int b) { return (b ^ (b >> 1)) & 15; }`,
	"satadd8": `
int full(int a, int b) { return (a + b) & 511; }
int y(int a, int b) {
    int t = a + b;
    if (t > 255) t = 255;
    return t;
}`,
	"mult4": `
int p(int a, int b) { return (a * b) & 255; }`,
}

// xAligns is the per-problem cross-level alignment override table: extra
// C model functions (beyond the output ports, which align by name) and
// the internal RTL signal each one models. The cross-level debugger
// traces these signals too, so a divergence inside a multi-stage design
// localizes to the first wrong *stage*, not just the final output.
var xAligns = map[string]map[string]string{
	"barrel8": {"s1": "s1", "s2": "s2"},
	"satadd8": {"full": "full"},
}
