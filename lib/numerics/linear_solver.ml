let gauss a b =
  let n = Matrix.rows a in
  if Matrix.cols a <> n then Error "gauss: matrix not square"
  else if Array.length b <> n then Error "gauss: dimension mismatch"
  else begin
    let m = Matrix.copy a in
    let rhs = Array.copy b in
    let singular = ref false in
    (try
       for col = 0 to n - 1 do
         (* Partial pivoting: pick the row with the largest magnitude. *)
         let pivot_row = ref col in
         for row = col + 1 to n - 1 do
           if abs_float (Matrix.get m row col) > abs_float (Matrix.get m !pivot_row col)
           then pivot_row := row
         done;
         if abs_float (Matrix.get m !pivot_row col) < 1e-12 then begin
           singular := true;
           raise Exit
         end;
         Matrix.swap_rows m col !pivot_row;
         let tmp = rhs.(col) in
         rhs.(col) <- rhs.(!pivot_row);
         rhs.(!pivot_row) <- tmp;
         let pivot = Matrix.get m col col in
         for row = col + 1 to n - 1 do
           let factor = Matrix.get m row col /. pivot in
           if factor <> 0.0 then begin
             for k = col to n - 1 do
               Matrix.set m row k (Matrix.get m row k -. (factor *. Matrix.get m col k))
             done;
             rhs.(row) <- rhs.(row) -. (factor *. rhs.(col))
           end
         done
       done
     with Exit -> ());
    if !singular then Error "gauss: singular matrix"
    else begin
      let x = Array.make n 0.0 in
      for row = n - 1 downto 0 do
        let acc = ref rhs.(row) in
        for k = row + 1 to n - 1 do
          acc := !acc -. (Matrix.get m row k *. x.(k))
        done;
        x.(row) <- !acc /. Matrix.get m row row
      done;
      Ok x
    end
  end

let jacobi ?(max_iters = 10_000) ?(tolerance = 1e-12) a b =
  let n = Matrix.rows a in
  if Matrix.cols a <> n then Error "jacobi: matrix not square"
  else if Array.length b <> n then Error "jacobi: dimension mismatch"
  else begin
    let diag_ok = ref true in
    for i = 0 to n - 1 do
      if abs_float (Matrix.get a i i) < 1e-15 then diag_ok := false
    done;
    if not !diag_ok then Error "jacobi: zero diagonal entry"
    else begin
      let x = Array.make n 0.0 in
      let next = Array.make n 0.0 in
      let rec iterate remaining =
        if remaining = 0 then Error "jacobi: did not converge"
        else begin
          let delta = ref 0.0 in
          for i = 0 to n - 1 do
            let acc = ref b.(i) in
            for j = 0 to n - 1 do
              if j <> i then acc := !acc -. (Matrix.get a i j *. x.(j))
            done;
            next.(i) <- !acc /. Matrix.get a i i;
            delta := max !delta (abs_float (next.(i) -. x.(i)))
          done;
          Array.blit next 0 x 0 n;
          if !delta <= tolerance then Ok (Array.copy x)
          else iterate (remaining - 1)
        end
      in
      iterate max_iters
    end
  end

type row = { cols : int array; vals : float array }

let to_matrix rows =
  let n = Array.length rows in
  let m = Matrix.create ~rows:n ~cols:n in
  Array.iteri
    (fun i r -> Array.iteri (fun k j -> Matrix.set m i j r.vals.(k)) r.cols)
    rows;
  m

let grow_ints a = Array.append a (Array.make (max 4 (Array.length a)) 0)
let grow_floats a = Array.append a (Array.make (max 4 (Array.length a)) 0.0)

(* [gauss]'s arithmetic on the entries that are, or become, nonzero.
   Row [r] holds entries [0 .. rlen.(r) - 1] (column [rcol.(r).(e)],
   value [rval.(r).(e)]); entries are only ever appended, so an index
   stays valid, and column [j] lists the rows with an entry there
   ([crow]) and the entry's index ([cidx]).  Rows are swapped through
   [perm] (position -> row) and [pos] (row -> position); the right-hand
   side stays indexed by row.

   Skipping a zero is exact.  A zero never wins a pivot search (which
   uses a strict comparison, earliest position on a tie), its factor is
   zero, and partial pivoting keeps every factor within [-1, 1], so
   [x -. factor *. 0.0] is [x] for every [x] but [-0.0], which neither
   the input nor any update produces.  Entries left of the pivot column
   are never read again, so they are not updated either. *)
let sparse_gauss rows b =
  let n = Array.length rows in
  let ok_row r =
    Array.length r.cols = Array.length r.vals
    && Array.for_all (fun j -> j >= 0 && j < n) r.cols
  in
  if Array.length b <> n then Error "sparse_gauss: dimension mismatch"
  else if not (Array.for_all ok_row rows) then
    Error "sparse_gauss: column out of range"
  else begin
    let rcol = Array.map (fun r -> Array.copy r.cols) rows in
    let rval = Array.map (fun r -> Array.copy r.vals) rows in
    let rlen = Array.map (fun r -> Array.length r.cols) rows in
    let clen = Array.make n 0 in
    Array.iter (Array.iter (fun j -> clen.(j) <- clen.(j) + 1)) rcol;
    let crow = Array.map (fun k -> Array.make k 0) clen in
    let cidx = Array.map (fun k -> Array.make k 0) clen in
    Array.fill clen 0 n 0;
    let push_column j r e =
      let k = clen.(j) in
      if k = Array.length crow.(j) then begin
        crow.(j) <- grow_ints crow.(j);
        cidx.(j) <- grow_ints cidx.(j)
      end;
      crow.(j).(k) <- r;
      cidx.(j).(k) <- e;
      clen.(j) <- k + 1
    in
    (* [where.(j)]: the index of column [j]'s entry in the row being
       updated, or -1. *)
    let where = Array.make n (-1) in
    let repeated = ref false in
    for r = 0 to n - 1 do
      for e = 0 to rlen.(r) - 1 do
        let j = rcol.(r).(e) in
        if where.(j) >= 0 then repeated := true else where.(j) <- e;
        push_column j r e
      done;
      for e = 0 to rlen.(r) - 1 do
        where.(rcol.(r).(e)) <- -1
      done
    done;
    if !repeated then Error "sparse_gauss: column repeated in a row"
    else begin
      let append r j v =
        let e = rlen.(r) in
        if e = Array.length rcol.(r) then begin
          rcol.(r) <- grow_ints rcol.(r);
          rval.(r) <- grow_floats rval.(r)
        end;
        rcol.(r).(e) <- j;
        rval.(r).(e) <- v;
        rlen.(r) <- e + 1;
        push_column j r e
      in
      let rhs = Array.copy b in
      let perm = Array.init n Fun.id and pos = Array.init n Fun.id in
      let pivots = Array.make n 0.0 in
      let col = ref 0 and singular = ref false in
      while (not !singular) && !col < n do
        let c = !col in
        let rows_c = crow.(c) and idx_c = cidx.(c) and len_c = clen.(c) in
        (* The dense search starts from the row at position [c]. *)
        let best = ref 0.0 and best_pos = ref c in
        for k = 0 to len_c - 1 do
          if pos.(rows_c.(k)) = c then best := rval.(rows_c.(k)).(idx_c.(k))
        done;
        for k = 0 to len_c - 1 do
          let p = pos.(rows_c.(k)) in
          if p > c then begin
            let v = rval.(rows_c.(k)).(idx_c.(k)) in
            let a = abs_float v and a_best = abs_float !best in
            if a > a_best || (a = a_best && p < !best_pos) then begin
              best := v;
              best_pos := p
            end
          end
        done;
        if abs_float !best < 1e-12 then singular := true
        else begin
          let pr = perm.(!best_pos) and displaced = perm.(c) in
          perm.(c) <- pr;
          perm.(!best_pos) <- displaced;
          pos.(pr) <- c;
          pos.(displaced) <- !best_pos;
          let pivot = !best in
          pivots.(c) <- pivot;
          let pcol = rcol.(pr) and pval = rval.(pr) and plen = rlen.(pr) in
          (* Fill-in only adds columns right of [c], so column [c]'s
             list is fixed during this loop. *)
          for k = 0 to len_c - 1 do
            let r = rows_c.(k) in
            if pos.(r) > c then begin
              let factor = rval.(r).(idx_c.(k)) /. pivot in
              if factor <> 0.0 then begin
                for e = 0 to rlen.(r) - 1 do
                  let j = rcol.(r).(e) in
                  if j > c then where.(j) <- e
                done;
                for e = 0 to plen - 1 do
                  let j = pcol.(e) in
                  if j > c then begin
                    let w = where.(j) in
                    if w >= 0 then
                      rval.(r).(w) <- rval.(r).(w) -. (factor *. pval.(e))
                    else append r j (0.0 -. (factor *. pval.(e)))
                  end
                done;
                for e = 0 to rlen.(r) - 1 do
                  where.(rcol.(r).(e)) <- -1
                done;
                rhs.(r) <- rhs.(r) -. (factor *. rhs.(pr))
              end
            end
          done;
          incr col
        end
      done;
      if !singular then Error "sparse_gauss: singular matrix"
      else begin
        (* Back-substitution sums each row in increasing column order,
           as [gauss] does. *)
        let x = Array.make n 0.0 in
        for row = n - 1 downto 0 do
          let pr = perm.(row) in
          let cols = rcol.(pr) and vals = rval.(pr) in
          let right = ref [] in
          for e = rlen.(pr) - 1 downto 0 do
            if cols.(e) > row then right := e :: !right
          done;
          let right = Array.of_list !right in
          Array.sort (fun e f -> Int.compare cols.(e) cols.(f)) right;
          let acc = ref rhs.(pr) in
          Array.iter (fun e -> acc := !acc -. (vals.(e) *. x.(cols.(e)))) right;
          x.(row) <- !acc /. pivots.(row)
        done;
        Ok x
      end
    end
  end
