// Command movies demonstrates TSL-driven graph modeling, the paper's
// Figure 4/5 example end to end: the schema in schema.tsl was compiled by
// cmd/tslc into schema_gen.go, giving typed Movie/Actor cells with blob
// marshaling, accessors that read and write a cell in place at offsets
// computed from the layout, and an Echo protocol stub.
//
//	go run ./examples/movies
package main

//go:generate go run ../../cmd/tslc -o schema_gen.go schema.tsl

import (
	"context"
	"fmt"
	"log"

	"trinity/internal/hash"
	"trinity/internal/memcloud"
	"trinity/internal/msg"
)

func main() {
	ctx := context.Background()
	cloud := memcloud.New(memcloud.Config{Machines: 3})
	defer cloud.Close()
	s := cloud.Slave(0)

	// --- store a small movie/actor graph through the generated API ---
	keanu := hash.String("actor:Keanu Reeves")
	carrie := hash.String("actor:Carrie-Anne Moss")
	matrix := hash.String("movie:The Matrix")
	jwick := hash.String("movie:John Wick")

	movies := []struct {
		id uint64
		m  Movie
	}{
		{matrix, Movie{Name: "The Matrix", Year: 1999, Rating: 8.7, Actors: []uint64{keanu, carrie}}},
		{jwick, Movie{Name: "John Wick", Year: 2014, Rating: 7.4, Actors: []uint64{keanu}}},
	}
	for _, mv := range movies {
		if err := s.Put(ctx, mv.id, mv.m.AppendTo(nil)); err != nil {
			log.Fatal(err)
		}
	}
	actors := []struct {
		id uint64
		a  Actor
	}{
		{keanu, Actor{Name: "Keanu Reeves", Movies: []uint64{matrix, jwick}}},
		{carrie, Actor{Name: "Carrie-Anne Moss", Movies: []uint64{matrix}}},
	}
	for _, ac := range actors {
		if err := s.Put(ctx, ac.id, ac.a.AppendTo(nil)); err != nil {
			log.Fatal(err)
		}
	}

	// --- typed load: cells decode into generated structs ---
	m := loadMovie(ctx, s, matrix)
	fmt.Printf("%s (%d), rating %.1f, %d actors\n", m.Name, m.Year, m.Rating, len(m.Actors))
	for _, aid := range m.Actors {
		blob, err := s.Get(ctx, aid)
		if err != nil {
			log.Fatal(err)
		}
		// The accessor reads the name and the list length in place.
		a, err := NewActorAccessor(blob)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  cast: %s (%d movies)\n", a.Name(), a.Movies().Len())
	}

	// --- accessor write: mutate a fixed field in place, no
	//     serialization round trip (paper §4.3's UseMyCellAccessor),
	//     under the owner's trunk lock ---
	owner := cloud.Slave(int(s.Owner(matrix)))
	if err := owner.Update(matrix, func(blob []byte) error {
		a, err := NewMovieAccessor(blob)
		if err != nil {
			return err
		}
		fmt.Printf("in-place: year %d -> 2000 (re-release)\n", a.Year())
		a.setYear(2000)
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	m = loadMovie(ctx, s, matrix)
	fmt.Printf("after accessor write: %s year = %d\n", m.Name, m.Year)

	// --- the Figure 5 Echo protocol: calling a remote machine reads like
	//     calling a local method ---
	RegisterEcho(cloud.Slave(1).Node(), func(_ context.Context, from msg.MachineID, req *MyMessage) (*MyMessage, error) {
		return &MyMessage{Text: "echo from machine 1: " + req.Text}, nil
	})
	resp, err := CallEcho(ctx, s.Node(), cloud.Slave(1).ID(), &MyMessage{Text: "hello TSL"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(resp.Text)
}

// loadMovie reads and decodes one movie cell.
func loadMovie(ctx context.Context, s *memcloud.Slave, id uint64) *Movie {
	blob, err := s.Get(ctx, id)
	if err != nil {
		log.Fatal(err)
	}
	m := new(Movie)
	if err := m.Unmarshal(blob); err != nil {
		log.Fatal(err)
	}
	return m
}
