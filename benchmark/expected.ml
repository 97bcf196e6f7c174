(* Committed output digests: (workload, input seed, digest), for the
   first eight rounds of runs with --seed 1 and 2.  A round whose input
   seed is listed must reproduce its digest exactly; other seeds print
   their digest without gating it.  The input seed of round [r] of a run
   with [--seed s] is [s * 1000 + r], and 0 for a workload whose input
   does not depend on the seed.  The digests are the same at any --jobs. *)

let digests =
  [
    ("table2", 1000, "38efb34c56f8ad80428d02c74c6cc474");
    ("table2", 1001, "c268ef8dbd67c89ae27cb4818dc2c85e");
    ("table2", 1002, "0a05babc8cefb6109c3f39127470e1d5");
    ("table2", 1003, "c1350161d868d72bf239fb326ed957bf");
    ("table2", 1004, "96dddf957536b1f6e735ca943b8133ea");
    ("table2", 1005, "922538e5eca545779ec623610f2dded9");
    ("table2", 1006, "8a0259a551b44afa615ac95493bafe43");
    ("table2", 1007, "d1f02f4e478dce61f4683ffd33c4e433");
    ("table2", 2000, "a3048fb18a5213a1548bfc88f3904490");
    ("table2", 2001, "8a3ee3a9d22febd8ccd817c82f2b652b");
    ("table2", 2002, "aaa9359853ff4877adf2ab3f49b8c8ef");
    ("table2", 2003, "ad3d3de71c440302ff733e2384f95063");
    ("table2", 2004, "3b6ebc979679c47508bf06dc79deb486");
    ("table2", 2005, "91a5db628efb2a06a8fb6cdf747e419a");
    ("table2", 2006, "c1636c5207b25cb0186f3d46626904ac");
    ("table2", 2007, "d4277280913cbe5630286df76fc68a15");
    ("fig3", 0, "d38762cddd583c69dd0a7012a1b82bc4");
    ("pageload", 1000, "62a30d35d37a6030e18d2a3544068e5c");
    ("pageload", 1001, "4efff4e2e0f988bf3891592e662d97f6");
    ("pageload", 1002, "ffa7fa14ef75a78b1c71a30da73cc428");
    ("pageload", 1003, "d4721e3b564cfd1590aff4a8ed2f507f");
    ("pageload", 1004, "6a8d71626740982b73ae71f13a87d632");
    ("pageload", 1005, "e525a4f54972283c04b177a8de784566");
    ("pageload", 1006, "6202c812d21013e14fbf35e7d1beeb26");
    ("pageload", 1007, "5c0b241da9d13f0ce89e4da88dc07b22");
    ("pageload", 2000, "7f9efc19491c015c3002148ebed6321e");
    ("pageload", 2001, "2b6f6352fd370a354788661016845f54");
    ("pageload", 2002, "d86d6878effec40eb4b5aece8271ceca");
    ("pageload", 2003, "39315eb8618756c753aa96c880e5ea6f");
    ("pageload", 2004, "1ba048e0af98979085919114e8c41790");
    ("pageload", 2005, "3a6ff42e275a8e282b7d4363d224c45b");
    ("pageload", 2006, "c654e7f32458cd38401bc0908e754113");
    ("pageload", 2007, "f4e91940875a799d9767005902215dc8");
    ("population", 1000, "b00d3693829b3b58473915190a8f3fc9");
    ("population", 1001, "b991939a3a534d8b9fafbe432b4a0661");
    ("population", 1002, "4fd7e4f55d10ccd19fc36b29d0cd8dfe");
    ("population", 1003, "7543c2b5f48fa2d0119cd2ad805aa50b");
    ("population", 1004, "fa599881a879b8156b0f23eb0529b848");
    ("population", 1005, "d8fdf3b693905b4eeb73f8d16ae03f24");
    ("population", 1006, "9ba56ed998216c0751385841fd9ed0ad");
    ("population", 1007, "68fc243d5f52bafd8ce585322f7ead05");
    ("population", 2000, "811c710671be823290d364bd8fbf89d6");
    ("population", 2001, "d3e6138d0e881d9de6555b9ea52d8896");
    ("population", 2002, "086c08c0b999567f9af0df280ac1c33d");
    ("population", 2003, "a386f7af5d62700049c34b53ec3b85b2");
    ("population", 2004, "b52c7ae71eae4558b2f0b7eb80dbcb5e");
    ("population", 2005, "af1558453476599dc24ca45180ff60dd");
    ("population", 2006, "5950f7a2922a1a6d9c1c02139a5d15a1");
    ("population", 2007, "43c8aed61c8cb00610c8f40f73250140");
  ]

let find ~workload ~input_seed =
  List.find_map (fun (w, s, d) -> if w = workload && s = input_seed then Some d else None) digests
