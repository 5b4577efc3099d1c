let instr_size = 8
let magic = "G32B"

let binop_code = function
  | Instr.Add -> 0
  | Instr.Sub -> 1
  | Instr.Mul -> 2
  | Instr.Div -> 3
  | Instr.Rem -> 4
  | Instr.And -> 5
  | Instr.Or -> 6
  | Instr.Xor -> 7
  | Instr.Shl -> 8
  | Instr.Shr -> 9

let binop_of_code = function
  | 0 -> Some Instr.Add
  | 1 -> Some Instr.Sub
  | 2 -> Some Instr.Mul
  | 3 -> Some Instr.Div
  | 4 -> Some Instr.Rem
  | 5 -> Some Instr.And
  | 6 -> Some Instr.Or
  | 7 -> Some Instr.Xor
  | 8 -> Some Instr.Shl
  | 9 -> Some Instr.Shr
  | _ -> None

let cond_code = function
  | Instr.Eq -> 0
  | Instr.Ne -> 1
  | Instr.Lt -> 2
  | Instr.Ge -> 3
  | Instr.Le -> 4
  | Instr.Gt -> 5

let cond_of_code = function
  | 0 -> Some Instr.Eq
  | 1 -> Some Instr.Ne
  | 2 -> Some Instr.Lt
  | 3 -> Some Instr.Ge
  | 4 -> Some Instr.Le
  | 5 -> Some Instr.Gt
  | _ -> None

(* Opcode layout: 0 nop, 1 halt, 2 movi, 3 mov, 4-13 binop, 14-23 binopi,
   24 ld, 25 st, 26-31 br, 32 jmp, 33 call, 34 ret, 35 rnd, 36 out. *)

let check_imm imm =
  if imm < Int32.to_int Int32.min_int || imm > Int32.to_int Int32.max_int then
    invalid_arg (Printf.sprintf "Encode: immediate %d exceeds 32 bits" imm)

let fill buf ~op ?(rd = 0) ?(rs1 = 0) ?(rs2 = 0) ?(imm = 0) () =
  check_imm imm;
  Bytes.set_uint8 buf 0 op;
  Bytes.set_uint8 buf 1 rd;
  Bytes.set_uint8 buf 2 rs1;
  Bytes.set_uint8 buf 3 rs2;
  Bytes.set_int32_le buf 4 (Int32.of_int imm)

let encode_instr instr =
  let buf = Bytes.make instr_size '\000' in
  let ri = Reg.to_int in
  (match instr with
  | Instr.Nop -> fill buf ~op:0 ()
  | Instr.Halt -> fill buf ~op:1 ()
  | Instr.Movi (rd, imm) -> fill buf ~op:2 ~rd:(ri rd) ~imm ()
  | Instr.Mov (rd, rs) -> fill buf ~op:3 ~rd:(ri rd) ~rs1:(ri rs) ()
  | Instr.Binop (op, rd, rs1, rs2) ->
      fill buf ~op:(4 + binop_code op) ~rd:(ri rd) ~rs1:(ri rs1) ~rs2:(ri rs2)
        ()
  | Instr.Binopi (op, rd, rs, imm) ->
      fill buf ~op:(14 + binop_code op) ~rd:(ri rd) ~rs1:(ri rs) ~imm ()
  | Instr.Load (rd, rs, off) ->
      fill buf ~op:24 ~rd:(ri rd) ~rs1:(ri rs) ~imm:off ()
  | Instr.Store (rsrc, rbase, off) ->
      fill buf ~op:25 ~rd:(ri rsrc) ~rs1:(ri rbase) ~imm:off ()
  | Instr.Br (c, rs1, rs2, target) ->
      fill buf ~op:(26 + cond_code c) ~rs1:(ri rs1) ~rs2:(ri rs2) ~imm:target
        ()
  | Instr.Jmp target -> fill buf ~op:32 ~imm:target ()
  | Instr.Call target -> fill buf ~op:33 ~imm:target ()
  | Instr.Ret -> fill buf ~op:34 ()
  | Instr.Rnd (rd, bound) -> fill buf ~op:35 ~rd:(ri rd) ~imm:bound ()
  | Instr.Out rs -> fill buf ~op:36 ~rd:(ri rs) ());
  buf

let decode_instr bytes ~pos =
  if pos < 0 || pos + instr_size > Bytes.length bytes then
    Error (Printf.sprintf "decode_instr: position %d out of range" pos)
  else
    let op = Bytes.get_uint8 bytes pos in
    let rd = Bytes.get_uint8 bytes (pos + 1) in
    let rs1 = Bytes.get_uint8 bytes (pos + 2) in
    let rs2 = Bytes.get_uint8 bytes (pos + 3) in
    let imm = Int32.to_int (Bytes.get_int32_le bytes (pos + 4)) in
    let reg i =
      match Reg.of_int_opt i with
      | Some r -> Ok r
      | None -> Error (Printf.sprintf "decode_instr: bad register %d" i)
    in
    let ( let* ) = Result.bind in
    match op with
    | 0 -> Ok Instr.Nop
    | 1 -> Ok Instr.Halt
    | 2 ->
        let* rd = reg rd in
        Ok (Instr.Movi (rd, imm))
    | 3 ->
        let* rd = reg rd in
        let* rs = reg rs1 in
        Ok (Instr.Mov (rd, rs))
    | n when n >= 4 && n <= 13 -> (
        match binop_of_code (n - 4) with
        | None -> Error "decode_instr: bad binop"
        | Some bop ->
            let* rd = reg rd in
            let* r1 = reg rs1 in
            let* r2 = reg rs2 in
            Ok (Instr.Binop (bop, rd, r1, r2)))
    | n when n >= 14 && n <= 23 -> (
        match binop_of_code (n - 14) with
        | None -> Error "decode_instr: bad binopi"
        | Some bop ->
            let* rd = reg rd in
            let* r1 = reg rs1 in
            Ok (Instr.Binopi (bop, rd, r1, imm)))
    | 24 ->
        let* rd = reg rd in
        let* rs = reg rs1 in
        Ok (Instr.Load (rd, rs, imm))
    | 25 ->
        let* rsrc = reg rd in
        let* rbase = reg rs1 in
        Ok (Instr.Store (rsrc, rbase, imm))
    | n when n >= 26 && n <= 31 -> (
        match cond_of_code (n - 26) with
        | None -> Error "decode_instr: bad branch condition"
        | Some c ->
            let* r1 = reg rs1 in
            let* r2 = reg rs2 in
            Ok (Instr.Br (c, r1, r2, imm)))
    | 32 -> Ok (Instr.Jmp imm)
    | 33 -> Ok (Instr.Call imm)
    | 34 -> Ok Instr.Ret
    | 35 ->
        let* rd = reg rd in
        Ok (Instr.Rnd (rd, imm))
    | 36 ->
        let* rs = reg rd in
        Ok (Instr.Out rs)
    | n -> Error (Printf.sprintf "decode_instr: unknown opcode %d" n)

let header_size = 4 + 4 + 4 + 4

let encode_program (p : Program.t) =
  let ncode = Array.length p.code in
  let ndata = List.length p.data_init in
  let total = header_size + (ncode * instr_size) + (ndata * 8) in
  let buf = Bytes.make total '\000' in
  Bytes.blit_string magic 0 buf 0 4;
  Bytes.set_int32_le buf 4 (Int32.of_int p.entry);
  Bytes.set_int32_le buf 8 (Int32.of_int ncode);
  Bytes.set_int32_le buf 12 (Int32.of_int ndata);
  Array.iteri
    (fun i instr ->
      Bytes.blit (encode_instr instr) 0 buf (header_size + (i * instr_size))
        instr_size)
    p.code;
  List.iteri
    (fun i (addr, value) ->
      let pos = header_size + (ncode * instr_size) + (i * 8) in
      Bytes.set_int32_le buf pos (Int32.of_int addr);
      Bytes.set_int32_le buf (pos + 4) (Int32.of_int value))
    p.data_init;
  buf

let decode_program bytes =
  let ( let* ) = Result.bind in
  if Bytes.length bytes < header_size then Error "decode_program: truncated"
  else if Bytes.sub_string bytes 0 4 <> magic then
    Error "decode_program: bad magic"
  else
    let entry = Int32.to_int (Bytes.get_int32_le bytes 4) in
    let ncode = Int32.to_int (Bytes.get_int32_le bytes 8) in
    let ndata = Int32.to_int (Bytes.get_int32_le bytes 12) in
    let expected = header_size + (ncode * instr_size) + (ndata * 8) in
    if ncode < 0 || ndata < 0 || Bytes.length bytes <> expected then
      Error "decode_program: size mismatch"
    else
      let rec decode_code i acc =
        if i = ncode then Ok (List.rev acc)
        else
          let* instr = decode_instr bytes ~pos:(header_size + (i * instr_size)) in
          decode_code (i + 1) (instr :: acc)
      in
      let* code = decode_code 0 [] in
      let data_base = header_size + (ncode * instr_size) in
      let data_init =
        List.init ndata (fun i ->
            let pos = data_base + (i * 8) in
            ( Int32.to_int (Bytes.get_int32_le bytes pos),
              Int32.to_int (Bytes.get_int32_le bytes (pos + 4)) ))
      in
      match Program.make ~entry ~data_init (Array.of_list code) with
      | p -> Ok p
      | exception Invalid_argument msg -> Error msg

let write_file path p =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_bytes oc (encode_program p))

let read_file path =
  match Tpdbt_durable.Durable.read_file path with
  | exception Sys_error msg -> Error msg
  | text -> decode_program (Bytes.of_string text)
