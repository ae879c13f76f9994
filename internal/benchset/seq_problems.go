package benchset

// Sequential and FSM problems with hand-written cycle-script testbenches.
// Each block is one stimulus/check phase so the coverage-loss model can
// drop later phases.

func seqSuite() []*Problem {
	var ps []*Problem

	ps = append(ps, &Problem{
		ID:         "dff",
		Spec:       "A D flip-flop with synchronous active-high reset: on each rising clock edge q becomes 0 if rst is 1, otherwise q becomes d.",
		difficulty: 1,
		TopModule:  "dff",
		Reference: `module dff(input clk, input rst, input d, output reg q);
  always @(posedge clk) begin
    if (rst) q <= 1'b0;
    else q <= d;
  end
endmodule
`,
		TBHeader: `module tb;
  reg clk, rst, d;
  wire q;
  dff dut(.clk(clk), .rst(rst), .d(d), .q(q));
  always #5 clk = ~clk;
  initial begin
    clk = 0; rst = 1; d = 0;
    @(negedge clk);
`,
		tbBlocks: []string{
			"    rst = 1; d = 1; @(negedge clk);\n    $check_eq(q, 1'b0);\n",
			"    rst = 0; d = 1; @(negedge clk);\n    $check_eq(q, 1'b1);\n",
			"    d = 0; @(negedge clk);\n    $check_eq(q, 1'b0);\n",
			"    d = 1; @(negedge clk);\n    $check_eq(q, 1'b1);\n",
			"    rst = 1; @(negedge clk);\n    $check_eq(q, 1'b0);\n",
			"    rst = 0; d = 1; @(negedge clk);\n    $check_eq(q, 1'b1);\n",
			"    d = 1; @(negedge clk);\n    $check_eq(q, 1'b1);\n",
			"    d = 0; @(negedge clk);\n    $check_eq(q, 1'b0);\n",
		},
		TBFooter: "    $finish;\n  end\nendmodule\n",
	})

	ps = append(ps, &Problem{
		ID:         "counter8",
		Spec:       "An 8-bit up counter with synchronous reset and enable: on each rising clock edge, reset clears q to 0; otherwise q increments by 1 when en is 1 and holds when en is 0.",
		difficulty: 2,
		TopModule:  "counter8",
		Reference: `module counter8(input clk, input rst, input en, output reg [7:0] q);
  always @(posedge clk) begin
    if (rst) q <= 8'd0;
    else if (en) q <= q + 8'd1;
  end
endmodule
`,
		TBHeader: `module tb;
  reg clk, rst, en;
  wire [7:0] q;
  integer i;
  counter8 dut(.clk(clk), .rst(rst), .en(en), .q(q));
  always #5 clk = ~clk;
  initial begin
    clk = 0; rst = 1; en = 0;
    @(negedge clk);
`,
		tbBlocks: []string{
			"    $check_eq(q, 8'd0);\n    rst = 0; en = 1;\n",
			"    for (i = 0; i < 5; i = i + 1) @(negedge clk);\n    $check_eq(q, 8'd5);\n",
			"    en = 0; @(negedge clk); @(negedge clk);\n    $check_eq(q, 8'd5);\n",
			"    en = 1; for (i = 0; i < 10; i = i + 1) @(negedge clk);\n    $check_eq(q, 8'd15);\n",
			"    rst = 1; @(negedge clk);\n    $check_eq(q, 8'd0);\n",
			"    rst = 0; for (i = 0; i < 3; i = i + 1) @(negedge clk);\n    $check_eq(q, 8'd3);\n",
		},
		TBFooter: "    $finish;\n  end\nendmodule\n",
	})

	ps = append(ps, &Problem{
		ID:         "shift4",
		Spec:       "A 4-bit serial-in shift register: on each rising clock edge, the register shifts left by one and din enters as the least-significant bit.",
		difficulty: 2,
		TopModule:  "shift4",
		Reference: `module shift4(input clk, input din, output reg [3:0] q);
  always @(posedge clk) begin
    q <= {q[2:0], din};
  end
endmodule
`,
		TBHeader: `module tb;
  reg clk, din;
  wire [3:0] q;
  shift4 dut(.clk(clk), .din(din), .q(q));
  always #5 clk = ~clk;
  initial begin
    clk = 0; din = 0;
    @(negedge clk); @(negedge clk);
    @(negedge clk); @(negedge clk);
    $check_eq(q, 4'b0000);
`,
		tbBlocks: []string{
			"    din = 1; @(negedge clk);\n    $check_eq(q[0], 1'b1);\n",
			"    din = 0; @(negedge clk);\n    $check_eq(q[1:0], 2'b10);\n",
			"    din = 1; @(negedge clk);\n    $check_eq(q[2:0], 3'b101);\n",
			"    din = 1; @(negedge clk);\n    $check_eq(q, 4'b1011);\n",
			"    din = 0; @(negedge clk);\n    $check_eq(q, 4'b0110);\n",
			"    din = 0; @(negedge clk);\n    $check_eq(q, 4'b1100);\n",
		},
		TBFooter: "    $finish;\n  end\nendmodule\n",
	})

	ps = append(ps, &Problem{
		ID:         "updown4",
		Spec:       "A 4-bit up/down counter with synchronous reset: on each rising clock edge, reset clears q; otherwise q increments when up is 1 and decrements when up is 0, wrapping modulo 16.",
		difficulty: 3,
		TopModule:  "updown4",
		Reference: `module updown4(input clk, input rst, input up, output reg [3:0] q);
  always @(posedge clk) begin
    if (rst) q <= 4'd0;
    else if (up) q <= q + 4'd1;
    else q <= q - 4'd1;
  end
endmodule
`,
		TBHeader: `module tb;
  reg clk, rst, up;
  wire [3:0] q;
  integer i;
  updown4 dut(.clk(clk), .rst(rst), .up(up), .q(q));
  always #5 clk = ~clk;
  initial begin
    clk = 0; rst = 1; up = 1;
    @(negedge clk);
    rst = 0;
`,
		tbBlocks: []string{
			"    for (i = 0; i < 6; i = i + 1) @(negedge clk);\n    $check_eq(q, 4'd6);\n",
			"    up = 0; for (i = 0; i < 2; i = i + 1) @(negedge clk);\n    $check_eq(q, 4'd4);\n",
			"    for (i = 0; i < 5; i = i + 1) @(negedge clk);\n    $check_eq(q, 4'd15);\n",
			"    up = 1; @(negedge clk);\n    $check_eq(q, 4'd0);\n",
			"    rst = 1; @(negedge clk);\n    $check_eq(q, 4'd0);\n",
			"    rst = 0; up = 1; @(negedge clk);\n    $check_eq(q, 4'd1);\n",
		},
		TBFooter: "    $finish;\n  end\nendmodule\n",
	})

	ps = append(ps, &Problem{
		ID:         "det101",
		Spec:       "A Moore FSM that detects the overlapping pattern 101 on serial input din: found pulses high for one cycle after the final 1 of each occurrence. Synchronous active-high reset.",
		difficulty: 5,
		TopModule:  "det101",
		Reference: `module det101(input clk, input rst, input din, output reg found);
  reg [1:0] st;
  always @(posedge clk) begin
    if (rst) begin
      st <= 2'd0;
      found <= 1'b0;
    end else begin
      found <= 1'b0;
      case (st)
        2'd0: st <= din ? 2'd1 : 2'd0;
        2'd1: st <= din ? 2'd1 : 2'd2;
        2'd2: begin
          if (din) begin
            found <= 1'b1;
            st <= 2'd1;
          end else begin
            st <= 2'd0;
          end
        end
        default: st <= 2'd0;
      endcase
    end
  end
endmodule
`,
		TBHeader: `module tb;
  reg clk, rst, din;
  wire found;
  integer hits;
  det101 dut(.clk(clk), .rst(rst), .din(din), .found(found));
  always #5 clk = ~clk;
  initial begin
    clk = 0; rst = 1; din = 0; hits = 0;
    @(negedge clk);
    rst = 0;
`,
		tbBlocks: []string{
			// Pattern 1 0 1 -> found pulses during the cycle after the final 1.
			"    din = 1; @(negedge clk); din = 0; @(negedge clk); din = 1; @(negedge clk);\n    $check_eq(found, 1'b1);\n",
			// Overlap: continue 0 1 -> second hit (1 0 1|0 1 -> 101 at 2-4).
			"    din = 0; @(negedge clk); din = 1; @(negedge clk);\n    $check_eq(found, 1'b1);\n",
			// No pattern: 1 1 0 0 -> no hit.
			"    din = 1; @(negedge clk); din = 1; @(negedge clk); din = 0; @(negedge clk); din = 0; @(negedge clk);\n    $check_eq(found, 1'b0);\n",
			// Reset mid-stream kills partial match: 1 0 [rst] 1 -> no hit.
			"    din = 1; @(negedge clk); din = 0; @(negedge clk);\n    rst = 1; @(negedge clk); rst = 0;\n    din = 1; @(negedge clk); @(negedge clk);\n    $check_eq(found, 1'b0);\n",
			// Fresh pattern after reset: 1 0 1 -> hit.
			"    din = 1; @(negedge clk); din = 0; @(negedge clk); din = 1; @(negedge clk);\n    $check_eq(found, 1'b1);\n",
		},
		TBFooter: "    $finish;\n  end\nendmodule\n",
	})

	ps = append(ps, &Problem{
		ID:         "lfsr8",
		Spec:       "An 8-bit Fibonacci LFSR with taps at bits 7, 5, 4 and 3 (polynomial x^8 + x^6 + x^5 + x^4 + 1): on each rising clock edge the register shifts left and the feedback bit (XOR of the taps) enters at bit 0. Synchronous reset loads 8'h01.",
		difficulty: 4,
		TopModule:  "lfsr8",
		Reference: `module lfsr8(input clk, input rst, output reg [7:0] q);
  wire fb;
  assign fb = q[7] ^ q[5] ^ q[4] ^ q[3];
  always @(posedge clk) begin
    if (rst) q <= 8'h01;
    else q <= {q[6:0], fb};
  end
endmodule
`,
		TBHeader: `module tb;
  reg clk, rst;
  wire [7:0] q;
  integer i;
  reg [7:0] model;
  reg fb;
  lfsr8 dut(.clk(clk), .rst(rst), .q(q));
  always #5 clk = ~clk;
  initial begin
    clk = 0; rst = 1;
    @(negedge clk);
    rst = 0; model = 8'h01;
`,
		tbBlocks: []string{
			"    for (i = 0; i < 8; i = i + 1) begin\n      fb = model[7] ^ model[5] ^ model[4] ^ model[3];\n      model = {model[6:0], fb};\n      @(negedge clk);\n      $check_eq(q, model);\n    end\n",
			"    for (i = 0; i < 16; i = i + 1) begin\n      fb = model[7] ^ model[5] ^ model[4] ^ model[3];\n      model = {model[6:0], fb};\n      @(negedge clk);\n      $check_eq(q, model);\n    end\n",
			"    rst = 1; @(negedge clk);\n    $check_eq(q, 8'h01);\n    rst = 0; model = 8'h01;\n",
			"    for (i = 0; i < 4; i = i + 1) begin\n      fb = model[7] ^ model[5] ^ model[4] ^ model[3];\n      model = {model[6:0], fb};\n      @(negedge clk);\n      $check_eq(q, model);\n    end\n",
		},
		TBFooter: "    $finish;\n  end\nendmodule\n",
	})

	ps = append(ps, &Problem{
		ID:         "edgedet",
		Spec:       "A rising-edge detector: pulse is high for exactly one clock cycle after the input sig transitions from 0 to 1. Synchronous active-high reset clears internal state.",
		difficulty: 3,
		TopModule:  "edgedet",
		Reference: `module edgedet(input clk, input rst, input sig, output pulse);
  reg prev;
  always @(posedge clk) begin
    if (rst) prev <= 1'b0;
    else prev <= sig;
  end
  assign pulse = sig & ~prev;
endmodule
`,
		TBHeader: `module tb;
  reg clk, rst, sig;
  wire pulse;
  edgedet dut(.clk(clk), .rst(rst), .sig(sig), .pulse(pulse));
  always #5 clk = ~clk;
  initial begin
    clk = 0; rst = 1; sig = 0;
    @(negedge clk);
    rst = 0;
`,
		tbBlocks: []string{
			"    $check_eq(pulse, 1'b0);\n    sig = 1;\n    #1;\n    $check_eq(pulse, 1'b1);\n",
			"    @(negedge clk);\n    $check_eq(pulse, 1'b0);\n",
			"    @(negedge clk);\n    $check_eq(pulse, 1'b0);\n    sig = 0; @(negedge clk);\n    $check_eq(pulse, 1'b0);\n",
			"    sig = 1; #1;\n    $check_eq(pulse, 1'b1);\n    @(negedge clk);\n    $check_eq(pulse, 1'b0);\n",
		},
		TBFooter: "    $finish;\n  end\nendmodule\n",
	})

	ps = append(ps, &Problem{
		ID:         "pwm4",
		Spec:       "A 4-bit PWM generator: a free-running 4-bit counter increments each rising clock edge (synchronous reset clears it); output out is 1 while the counter value is strictly less than the duty input.",
		difficulty: 4,
		TopModule:  "pwm4",
		Reference: `module pwm4(input clk, input rst, input [3:0] duty, output out);
  reg [3:0] cnt;
  always @(posedge clk) begin
    if (rst) cnt <= 4'd0;
    else cnt <= cnt + 4'd1;
  end
  assign out = cnt < duty;
endmodule
`,
		TBHeader: `module tb;
  reg clk, rst;
  reg [3:0] duty;
  wire out;
  integer i, highs;
  pwm4 dut(.clk(clk), .rst(rst), .duty(duty), .out(out));
  always #5 clk = ~clk;
  initial begin
    clk = 0; rst = 1; duty = 4'd4;
    @(negedge clk);
    rst = 0;
`,
		tbBlocks: []string{
			// duty=4: out high for counts 0..3 of each 16-cycle period.
			"    highs = 0;\n    for (i = 0; i < 16; i = i + 1) begin\n      if (out) highs = highs + 1;\n      @(negedge clk);\n    end\n    $check_eq(highs, 4);\n",
			"    duty = 4'd12; highs = 0;\n    for (i = 0; i < 16; i = i + 1) begin\n      if (out) highs = highs + 1;\n      @(negedge clk);\n    end\n    $check_eq(highs, 12);\n",
			"    duty = 4'd0; highs = 0;\n    for (i = 0; i < 16; i = i + 1) begin\n      if (out) highs = highs + 1;\n      @(negedge clk);\n    end\n    $check_eq(highs, 0);\n",
			"    duty = 4'd15; highs = 0;\n    for (i = 0; i < 16; i = i + 1) begin\n      if (out) highs = highs + 1;\n      @(negedge clk);\n    end\n    $check_eq(highs, 15);\n",
		},
		TBFooter: "    $finish;\n  end\nendmodule\n",
	})

	return ps
}
