% tiny3.m cut off inside its branch matrix: a parse error naming
% mpc.branch, not a grid that lacks the third line
function mpc = unclosed
mpc.version = '2';
mpc.baseMVA = 100;

% bus_i type Pd Qd Gs Bs area Vm Va baseKV zone Vmax Vmin
mpc.bus = [
	1	3	0	0	0	0	1	1	0	230	1	1.1	0.9;
	2	1	80	0	0	0	1	1	0	230	1	1.1	0.9;
	3	1	60	0	0	0	1	1	0	230	1	1.1	0.9;
];

% bus Pg Qg Qmax Qmin Vg mBase status Pmax Pmin
mpc.gen = [
	1	0	0	100	-100	1	100	1	200	0;
];

% fbus tbus r x b rateA rateB rateC ratio angle status angmin angmax
mpc.branch = [
	1	2	0	0.1	0	150	0	0	0	0	1	-30	30;
	1	3	0	0.2	0	100	0	0	0	0	1	-30	30;
