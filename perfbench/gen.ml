(* Seeded product-line generator.

   A line is everything one `llhsc pipeline` run needs — core DTS, delta
   modules, feature model, binding schemas, per-VM feature requests and
   the exclusive groups — plus the verdict the checker must reach on it.
   The shapes (clusters x CPUs, banks, UARTs/virtio/timers, VMs,
   delta-chain depth) are fixed per position in a workload's set, so every
   seed sees the same mix of sizes; the seed picks everything else:
   bank sizes and gaps, interrupt lines, which VM gets which resource, and
   where each injected defect lands.

   The expected verdict is computed from what was injected, never from
   llhsc output: each defect kind has a fixed effect on the products that
   contain the nodes it touches (see [expected]). *)

(* --- deterministic PRNG (splitmix64) -------------------------------------- *)

type rng = { mutable state : int64 }

let rng seed = { state = Int64.of_int seed }

let next r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  let z = r.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, n). *)
let int r n = Int64.to_int (Int64.unsigned_rem (next r) (Int64.of_int n))

let shuffle r l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Independent stream per (seed, salt): sets for different workloads and
   positions never share random draws. *)
let derive seed salt = rng ((seed * 1_000_003) + (salt * 7919) + 17)

(* --- shapes and defects ---------------------------------------------------- *)

type shape = {
  clusters : int;
  cpus_per_cluster : int;
  banks : int; (* <= 16: every bank sits below 4 GiB under 32-bit cells *)
  uarts : int;
  virtios : int;
  timers : int; (* non-exclusive devices; VMs may share them *)
  vms : int;
  depth : int; (* length (>= 1) of the `after` chain of delta modules *)
}

type defect =
  | Overlap_banks (* a bank spills into the next one *)
  | Device_in_ram (* E5 class: an MMIO device inside a RAM bank *)
  | Schema_violation (* a device lacks a required property *)
  | Duplicate_irq (* two devices claim one interrupt line *)
  | Shared_device (* one pass-through device in several VMs *)

let defect_name = function
  | Overlap_banks -> "overlap-banks"
  | Device_in_ram -> "device-in-ram"
  | Schema_violation -> "schema-violation"
  | Duplicate_irq -> "duplicate-irq"
  | Shared_device -> "shared-device"

let all_defects =
  [ Overlap_banks; Device_in_ram; Schema_violation; Duplicate_irq; Shared_device ]

(* Position [j] of a set: even positions are clean, odd ones carry two
   defect kinds, cycling so that any four consecutive odd positions cover
   all five kinds. *)
let defects_at j =
  if j mod 2 = 0 then []
  else
    let k = j / 2 * 2 in
    let d i = List.nth all_defects (i mod 5) in
    [ d k; d (k + 1) ]

(* --- the generated artifact ----------------------------------------------- *)

type line = {
  name : string;
  dts : string;
  deltas : string;
  model : string;
  schemas : (string * string) list; (* file name -> YAML, sorted by name *)
  vms : string list list; (* per-VM feature requests *)
  exclusive : string list;
  defects : defect list;
  expected : Verdict.t; (* the known answer for `llhsc pipeline` *)
  check_expected : Verdict.t; (* the known answer for `llhsc check` on [dts] *)
}

let products l = List.length l.vms + 1

(* Everything a line materialises to, for byte-identity checks. *)
let digest l =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          ([ l.name; l.dts; l.deltas; l.model ]
          @ List.concat_map (fun (n, s) -> [ n; s ]) l.schemas
          @ List.map (String.concat ",") l.vms
          @ l.exclusive)))

(* --- schemas ---------------------------------------------------------------- *)

let compat_schema ~id ~compat ~extra ~required =
  Printf.sprintf
    "$id: %s\nselect:\n  compatible: [%s]\nproperties:\n%s  reg:\n    minItems: 1\n    maxItems: 1\n    multipleOf: 2\nrequired: [%s]\n"
    id compat extra required

let schemas =
  [ ( "cpu.yaml",
      "$id: cpu\nselect:\n  node-name: cpu\nproperties:\n  device_type:\n    const: cpu\n  compatible:\n    enum: [riscv]\n  reg:\n    minItems: 1\n    maxItems: 1\nrequired: [device_type, compatible, reg]\n" );
    ( "memory.yaml",
      "$id: memory\nselect:\n  node-name: memory\nproperties:\n  device_type:\n    const: memory\n  reg:\n    minItems: 1\n    maxItems: 16\n    multipleOf: 2\nrequired: [device_type, reg]\n" );
    ( "plic.yaml",
      compat_schema ~id:"plic" ~compat:"\"riscv,plic0\"" ~extra:""
        ~required:"compatible, reg, interrupt-controller, \"#interrupt-cells\"" );
    ( "timer.yaml",
      compat_schema ~id:"timer" ~compat:"\"gen,timer\"" ~extra:""
        ~required:"compatible, reg, interrupts" );
    ( "uart.yaml",
      compat_schema ~id:"uart" ~compat:"ns16550a"
        ~extra:"  compatible:\n    const: ns16550a\n"
        ~required:"compatible, reg, interrupts" );
    ( "veth.yaml",
      "$id: veth\nselect:\n  compatible: [veth]\nproperties:\n  compatible:\n    const: veth\n  reg:\n    minItems: 1\n    maxItems: 1\n    multipleOf: 2\n  id:\n    type: cells\nrequired: [compatible, reg, id]\n" );
    ( "virtio.yaml",
      compat_schema ~id:"virtio" ~compat:"\"virtio,mmio\"" ~extra:""
        ~required:"compatible, reg, interrupts" ) ]

(* --- generation --------------------------------------------------------------- *)

type device = {
  dname : string; (* node name, also the feature name *)
  compat : string;
  base : int;
  size : int;
  mutable irq : int option;
}

let hex = Printf.sprintf "%x"

let generate ~name ~rng:r ~defects (s : shape) =
  (* 32 or 64 MiB banks with a 0 or 32 MiB gap: sixteen of them end below
     0xe0000000, so 32-bit cells suffice. *)
  let bank_sizes = [| 0x2000000; 0x4000000 |] in
  let banks =
    let base = ref 0x80000000 in
    List.init s.banks (fun _ ->
        let size = bank_sizes.(int r 2) in
        let b = !base in
        base := b + size + (if int r 2 = 0 then 0 else 0x2000000);
        (b, size))
  in
  let bank_name (b, _) = "memory@" ^ hex b in
  let bank_feature (b, _) = "bank@" ^ hex b in
  let ncpus = s.clusters * s.cpus_per_cluster in
  (* Interrupt lines: a seeded permutation, one line per device. *)
  let lines = ref (shuffle r (List.init 60 (fun i -> i + 1))) in
  let take_line () =
    match !lines with
    | l :: rest ->
      lines := rest;
      Some l
    | [] -> assert false
  in
  let devs prefix compat base stride n =
    List.init n (fun i ->
        { dname = Printf.sprintf "%s@%x" prefix (base + (i * stride));
          compat; base = base + (i * stride); size = 0x1000; irq = None })
  in
  let uarts = devs "uart" "ns16550a" 0x10000000 0x1000 s.uarts in
  let virtios = devs "virtio" "virtio,mmio" 0x10100000 0x1000 s.virtios in
  let timers = devs "timer" "gen,timer" 0x10200000 0x1000 s.timers in
  let irq_devs = uarts @ virtios @ timers in
  List.iter (fun d -> d.irq <- take_line ()) irq_devs;
  let has d = List.mem d defects in
  (* Defect: a bank spills 16 MiB into its successor. *)
  let overlap =
    if has Overlap_banks then Some (int r (s.banks - 1)) else None
  in
  let orig_banks = banks in
  let banks =
    List.mapi
      (fun i (b, size) ->
        match overlap with
        | Some k when k = i ->
          let next_base, _ = List.nth banks (i + 1) in
          (b, next_base - b + 0x1000000)
        | _ -> (b, size))
      banks
  in
  (* Defect: a DMA engine mapped into the upper half of a bank — past the
     16 MiB a spilling predecessor can reach, so the two defects never
     produce extra collisions together. *)
  let dma =
    if has Device_in_ram then begin
      let k = int r s.banks in
      let b, size = List.nth orig_banks k in
      let base = b + (size / 2) + 0x100000 in
      Some (k, { dname = "dma@" ^ hex base; compat = "gen,dma"; base; size = 0x1000; irq = None })
    end
    else None
  in
  (* Defect: the schema target loses its required interrupts. *)
  let schema_target =
    if has Schema_violation then begin
      let d = List.nth irq_devs (int r (List.length irq_devs)) in
      d.irq <- None;
      Some d
    end
    else None
  in
  (* Defect: a later device reuses an earlier device's line. *)
  let dup =
    if has Duplicate_irq then begin
      let candidates = List.filter (fun d -> d.irq <> None) irq_devs in
      match List.sort compare (List.filteri (fun i _ -> i < 2) (shuffle r (List.init (List.length candidates) Fun.id))) with
      | [ i; j ] ->
        let first = List.nth candidates i and second = List.nth candidates j in
        second.irq <- first.irq;
        Some (first, second)
      | _ -> invalid_arg "shape has too few interrupt devices for a duplicate"
    end
    else None
  in
  (* --- allocation of resources to VMs --- *)
  let vm_of_partition items =
    (* Every VM gets one item; the rest land on random VMs. *)
    let items = shuffle r items in
    List.mapi (fun i x -> (x, if i < s.vms then i else int r s.vms)) items
  in
  let bank_vm = vm_of_partition banks in
  let cpu_vm = vm_of_partition (List.init ncpus Fun.id) in
  (* Every device belongs to some VM, so a line's total work does not
     depend on the seed. *)
  let dev_vm l = List.map (fun d -> (d, int r s.vms)) l in
  let uart_vm = dev_vm uarts and virtio_vm = dev_vm virtios in
  let shared = if has Shared_device then Some (List.nth timers (int r s.timers)) else None in
  (* Timers: one VM each, except the shared one which two VMs take. *)
  let timer_vms =
    List.map
      (fun t ->
        if Some t == shared then (t, List.filteri (fun i _ -> i < 2) (shuffle r (List.init s.vms Fun.id)))
        else (t, [ int r s.vms ]))
      timers
  in
  let dma_vm = Option.map (fun (_, d) -> (d, int r s.vms)) dma in
  let features_of vm =
    List.filter_map (fun (b, v) -> if v = vm then Some (bank_feature b) else None) bank_vm
    @ List.filter_map
        (fun (c, v) -> if v = vm then Some (Printf.sprintf "cpu@%x" c) else None)
        cpu_vm
    @ List.filter_map (fun (d, v) -> if v = vm then Some d.dname else None) (uart_vm @ virtio_vm)
    @ List.filter_map (fun (t, vs) -> if List.mem vm vs then Some t.dname else None) timer_vms
    @ (match dma_vm with Some (d, v) when v = vm -> [ d.dname ] | _ -> [])
    @ [ Printf.sprintf "vnet%d" vm ]
  in
  let vms = List.init s.vms features_of in
  (* --- DTS --- *)
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  p "/dts-v1/;\n\n/ {\n    #address-cells = <1>;\n    #size-cells = <1>;\n";
  p "    compatible = \"gen,%s\";\n\n    cpus {\n" name;
  p "        #address-cells = <1>;\n        #size-cells = <0>;\n";
  let cpu ind c =
    p "%scpu@%x { device_type = \"cpu\"; compatible = \"riscv\"; reg = <%d>; };\n" ind c c
  in
  if s.clusters = 1 then List.iter (cpu "        ") (List.init ncpus Fun.id)
  else
    for k = 0 to s.clusters - 1 do
      p "        cluster%d {\n            #address-cells = <1>;\n            #size-cells = <0>;\n" k;
      for c = 0 to s.cpus_per_cluster - 1 do
        cpu "            " ((k * s.cpus_per_cluster) + c)
      done;
      p "        };\n"
    done;
  p "    };\n\n";
  List.iter
    (fun (base, size) ->
      p "    memory@%x { device_type = \"memory\"; reg = <0x%x 0x%x>; };\n" base base size)
    banks;
  p "\n    soc {\n        #address-cells = <1>;\n        #size-cells = <1>;\n        ranges;\n";
  p "        interrupt-parent = <&plic>;\n\n";
  p "        plic: interrupt-controller@c000000 {\n            compatible = \"riscv,plic0\";\n";
  p "            interrupt-controller;\n            #interrupt-cells = <1>;\n";
  p "            reg = <0xc000000 0x4000000>;\n        };\n";
  List.iter
    (fun d ->
      p "\n        %s {\n            compatible = \"%s\";\n            reg = <0x%x 0x%x>;\n"
        d.dname d.compat d.base d.size;
      Option.iter (p "            interrupts = <%d>;\n") d.irq;
      p "        };\n")
    (irq_devs @ match dma with Some (_, d) -> [ d ] | None -> []);
  p "    };\n};\n";
  let dts = Buffer.contents b in
  (* --- feature model --- *)
  let b = Buffer.create 2048 in
  let p fmt = Printf.bprintf b fmt in
  let group ~kind ~opt name feats =
    if feats <> [] then begin
      p "    %s abstract %s %s {\n" opt name kind;
      List.iter (p "        %s;\n") feats;
      p "    }\n"
    end
  in
  p "feature abstract Board {\n";
  group ~kind:"or" ~opt:"mandatory" "memory" (List.map bank_feature banks);
  group ~kind:"or" ~opt:"mandatory" "cpus" (List.init ncpus (Printf.sprintf "cpu@%x"));
  group ~kind:"or" ~opt:"optional" "uarts" (List.map (fun d -> d.dname) uarts);
  group ~kind:"or" ~opt:"optional" "virtio" (List.map (fun d -> d.dname) virtios);
  List.iter (fun t -> p "    optional %s;\n" t.dname) timers;
  Option.iter (fun (_, d) -> p "    optional %s;\n" d.dname) dma;
  group ~kind:"xor" ~opt:"optional" "vnet" (List.init s.vms (Printf.sprintf "vnet%d"));
  p "}\n";
  let model = Buffer.contents b in
  (* --- deltas: the vnet chain, then one removal per optional node --- *)
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  let any_vnet = String.concat " || " (List.init s.vms (Printf.sprintf "vnet%d")) in
  p "delta d-vnet when (%s) {\n    modifies / {\n        vEthernet {\n" any_vnet;
  p "            #address-cells = <1>;\n            #size-cells = <1>;\n            ranges;\n";
  p "        };\n    };\n}\n\n";
  for k = 1 to s.depth do
    p "delta d-chain%d after %s when (%s) {\n    modifies vEthernet { chain-%d = <%d>; };\n}\n\n"
      k (if k = 1 then "d-vnet" else Printf.sprintf "d-chain%d" (k - 1)) any_vnet k k
  done;
  let tail = Printf.sprintf "d-chain%d" s.depth in
  for v = 0 to s.vms - 1 do
    let base = 0x40000000 + (v * 0x10000) in
    p "delta d-vnet%d after %s when vnet%d {\n    adds binding vEthernet {\n" v tail v;
    p "        vnet%d@%x {\n            compatible = \"veth\";\n" v base;
    p "            reg = <0x%x 0x10000>;\n            id = <%d>;\n        };\n    };\n}\n\n" base v
  done;
  let rm feature node = p "delta rm-%s when !%s { removes %s; }\n" node feature node in
  List.iter (fun bk -> rm (bank_feature bk) (bank_name bk)) banks;
  List.init ncpus (Printf.sprintf "cpu@%x") |> List.iter (fun c -> rm c c);
  List.iter (fun d -> rm d.dname d.dname) irq_devs;
  Option.iter (fun (_, d) -> rm d.dname d.dname) dma;
  let deltas = Buffer.contents b in
  (* --- the known answer --- *)
  let vm_name i = Printf.sprintf "vm%d" (i + 1) in
  let platform = List.sort_uniq compare (List.concat vms) in
  let products = List.mapi (fun i fs -> (vm_name i, fs)) vms @ [ ("platform", platform) ] in
  let bank_path k = "/" ^ bank_name (List.nth banks k) in
  let bank_feat k = bank_feature (List.nth banks k) in
  let soc d = "/soc/" ^ d.dname in
  let within_product (pname, fs) =
    let mem f = List.mem f fs in
    let e checker path = Verdict.entry ~section:pname ~severity:"error" ~checker ~path in
    (match overlap with
     | Some k when mem (bank_feat k) && mem (bank_feat (k + 1)) ->
       [ e "semantic" (bank_path k) ]
     | _ -> [])
    @ (match dma with
      | Some (k, d) when mem (bank_feat k) && mem d.dname -> [ e "semantic" (bank_path k) ]
      | _ -> [])
    @ (match schema_target with
      | Some d when mem d.dname -> [ e "syntactic" (soc d) ]
      | _ -> [])
    @ (match dup with
      | Some (a, c) when mem a.dname && mem c.dname -> [ e "semantic" (soc a) ]
      | _ -> [])
  in
  let vm_pairs =
    List.concat
      (List.init s.vms (fun a ->
           List.filter_map
             (fun b' -> if b' > a then Some (a, b') else None)
             (List.init s.vms Fun.id)))
  in
  let partition =
    let w path =
      Verdict.entry ~section:"partition" ~severity:"warning" ~checker:"partition" ~path
    in
    List.concat_map
      (fun (a, c) ->
        let fa = List.nth vms a and fc = List.nth vms c in
        (match overlap with
         | Some k ->
           let lo = bank_feat k and hi = bank_feat (k + 1) in
           (if List.mem lo fa && List.mem hi fc then [ w (bank_path k) ] else [])
           @ if List.mem hi fa && List.mem lo fc then [ w (bank_path (k + 1)) ] else []
         | None -> [])
        @
        match shared with
        | Some t when List.mem t.dname fa && List.mem t.dname fc -> [ w (soc t) ]
        | _ -> [])
      vm_pairs
  in
  let expected = Verdict.of_entries (List.concat_map within_product products @ partition) in
  (* `llhsc check` on the core DTS: semantic checks only (no schemas), on a
     tree holding every node. *)
  let check_expected =
    let e path = Verdict.entry ~section:"check" ~severity:"error" ~checker:"semantic" ~path in
    Verdict.of_entries
      ((match overlap with Some k -> [ e (bank_path k) ] | None -> [])
      @ (match dma with Some (k, _) -> [ e (bank_path k) ] | None -> [])
      @ match dup with Some (a, _) -> [ e (soc a) ] | None -> [])
  in
  let exclusive =
    [ "memory"; "cpus" ]
    @ (if uarts = [] then [] else [ "uarts" ])
    @ if virtios = [] then [] else [ "virtio" ]
  in
  { name; dts; deltas; model; schemas; vms; exclusive; defects; expected; check_expected }

(* The fixed member: the repository's own quad-core case study, clean. *)
let quad_rv64 () =
  let module Q = Llhsc.Quad_rv64 in
  let vms = [ Q.vm1_features; Q.vm2_features; Q.vm3_features ] in
  { name = "quad_rv64";
    dts = Q.core_dts;
    deltas = Q.deltas_src;
    model = Q.feature_model_src;
    schemas = List.mapi (fun i s -> (Printf.sprintf "schema-%d.yaml" i, s)) Q.schemas_src;
    vms;
    exclusive = Q.exclusive;
    defects = [];
    expected = Verdict.of_entries [];
    check_expected = Verdict.of_entries [] }
